"""Self-test of the benchmark's correctness gate and its refusal to run
without sources.

    python3 perfbench/selftest.py

1. For each workload, the first operations of seed 0 run against an intact
   copy of golden.json: none may fail.
2. The same operations run against a copy with one fingerprint corrupted:
   exactly that operation must be reported as failed, with the golden
   mismatch as its reason.
3. run.py, copied with BENCHMARK.json into a directory without ``src/``,
   must exit non-zero and print no result.

Scratch files go to .perfbench_work/ at the checkout root and are removed.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LIMIT = 3


def run_ops(workload: str, golden: Path, work: Path) -> list:
    out = work / f"{workload}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    subprocess.run([sys.executable, str(BENCH / "workloads.py"),
                    "--workload", workload, "--seed", "0", "--mode", "run",
                    "--limit", str(LIMIT), "--golden", str(golden),
                    "--out", str(out)], env=env, cwd=ROOT, check=True,
                   timeout=170)
    return json.loads(out.read_text())["passes"][0]["ops"]


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    problems = []
    try:
        intact = work / "golden_intact.json"
        shutil.copy(BENCH / "golden.json", intact)
        for workload in ("cli_oneshot", "invariants_batch", "hecke_oracle"):
            ops = run_ops(workload, intact, work)
            failed = [r[0] for r in ops if not r[3]]
            if failed:
                problems.append(f"{workload}: intact golden, failed {failed}")
            doc = json.loads(intact.read_text())
            table = doc[workload]["any" if workload == "cli_oneshot" else "0"]
            victim = ops[1][0]
            table[victim] = "0" * 64
            corrupt = work / f"golden_{workload}.json"
            corrupt.write_text(json.dumps(doc))
            ops = run_ops(workload, corrupt, work)
            failed = [(r[0], r[5]) for r in ops if not r[3]]
            if failed != [(victim, "fingerprint differs from golden.json")]:
                problems.append(f"{workload}: corrupted {victim!r}, "
                                f"reported {failed}")
            print(f"{workload}: {len(ops)} operations, corrupted fingerprint "
                  f"reported as {failed}")

        bare = work / "bare"
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload",
             "hecke_oracle", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("run.py without sources: exit "
                            f"{proc.returncode}, stdout {proc.stdout!r}")
        print(f"without sources: exit {proc.returncode}, "
              f"stderr {proc.stderr.strip()!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
