"""Byte-for-byte golden outputs of the CLI.

``golden_outputs.json`` holds, for each command below, the exit code and the
sha256 of the bytes written by ``--json``.  The ``modular-data`` and
``invariant`` values were recorded before the scalar core moved from Fraction
vectors to integer vectors, the ``verify`` and ``hecke-check`` values before
the signature moved to leaf elimination over the forest, and the
``modular-data 4 4`` and ``verify 3 4`` values, where the packing width is
largest, before the modularity check and fusion moved to packed integer dot
products, the 300-vertex chain values before the characteristic
structures moved to leaf elimination over the forest, and the 200-vertex
tree values before the elimination's messages moved to content-free packed
integers, and the Hecke values (``hecke-check 2 5``, a mixed-sign 5-strand
closure and the 6-strand full twist) before the Hecke product moved to a
walk of the reduced-word prefix tree, and ``modular-data 5 3`` (120-term
alternants) and ``modular-data 3 6`` / ``4 6 --theory reduced`` (column
powers up to 2 and 1) before the S-matrix build moved to alternant
histograms against one packed normalizer, and three commands at a
precision other than the default (an S-matrix, refined ``ExtScalar``
values, a braid closure) before the output moved from ``json.dumps`` to
a memoized per-document writer, and ``verify 4 4`` / ``5 4`` (fusion over
35 and 70 labels) and ``verify 3 3`` / ``4 3 --depth full`` (the
Littlewood-Richardson comparison above rank-level (2, 2)) before fusion
moved from the Verlinde sum to integer Pieri matrices, so any change to
exact values, to the canonical ``num``/``den`` form, to a gate result or to
the printed approximations shows here.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from heckemod.cli import MANIFEST_NAMES, main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
MANIFESTS = Path(__file__).resolve().parents[1] / "src" / "heckemod" / "manifests"

GRID = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)]

COMMANDS = (
    [["modular-data", str(N), str(K), "--theory", theory]
     for N, K in GRID for theory in ("su", "psu", "reduced")]
    + [["invariant", "--manifold", f"@{name}", "2", "3", "--theory", theory]
       for name in MANIFEST_NAMES for theory in ("su", "psu")]
    + [["invariant", "--manifold", f"@{name}", "3", "3", "--theory",
        "reduced", "--refined", "coho", "--all-structures"]
       for name in MANIFEST_NAMES]
    + [["verify", str(N), str(K), "--depth", "quick"]
       for N, K in ((2, 2), (2, 3), (3, 3))]
    + [["verify", "2", "2", "--depth", "full"]]
    + [["hecke-check", str(N), str(K)] for N, K in ((2, 3), (3, 3))]
    + [["modular-data", "4", "4"],
       ["modular-data", "4", "4", "--theory", "reduced"],
       ["verify", "3", "4", "--depth", "quick"]]
    + [["invariant", "--manifold", "@chain300", "3", "3", "--theory",
        "reduced", "--refined", "coho", "--all-structures"],
       ["invariant", "--manifold", "@chain300", "2", "6", "--theory",
        "reduced", "--refined", "spin", "--all-structures"]]
    + [["invariant", "--manifold", "@tree200su", "3", "3", "--theory", "su"],
       ["invariant", "--manifold", "@tree200red33", "3", "3", "--theory",
        "reduced", "--refined", "coho", "--all-structures"],
       ["invariant", "--manifold", "@tree200red26", "2", "6", "--theory",
        "reduced", "--refined", "spin", "--all-structures"]]
    + [["hecke-check", "2", "5"],
       ["homfly", "2", "5", "--strands", "5", "--braid",
        "1,-2,3,-4,2,-1,4,3,-2,1,-3,-4,2"],
       ["homfly", "3", "3", "--strands", "6", "--braid",
        ",".join(["1,2,3,4,5"] * 6)]]
    + [["modular-data", "5", "3"],
       ["modular-data", "3", "6", "--theory", "reduced"],
       ["modular-data", "4", "6", "--theory", "reduced"]]
    + [["modular-data", "3", "3", "--theory", "reduced", "--precision", "40"],
       ["invariant", "--manifold", "@tree5", "3", "3", "--theory", "reduced",
        "--refined", "coho", "--all-structures", "--precision", "30"],
       ["homfly", "3", "3", "--strands", "4", "--braid", "1,2,3,-1,2,-3,1",
        "--precision", "25"]]
    + [["verify", "4", "4", "--depth", "quick"],
       ["verify", "3", "3", "--depth", "full"],
       ["verify", "4", "3", "--depth", "full"],
       ["verify", "5", "4", "--depth", "quick"]]
)


def long_chain(length: int, seed: int) -> dict:
    """Plumbing document of a chain with framings in [-3, 3] drawn from a
    fixed seed, redrawn until its determinant is divisible by 6, so its
    linking matrix has corank 1 mod 3 and mod 2 (a chain's corank is at
    most 1) and both refinements have more than one structure."""
    rng = random.Random(seed)
    while True:
        framings = [rng.randint(-3, 3) for _ in range(length)]
        prev, det = 0, 1  # continuant recurrence D_k = b_k D_{k-1} - D_{k-2}
        for b in framings:
            prev, det = det, (b * det - prev) % 6
        if det == 0:
            break
    return {"vertices": [{"id": f"v{i}", "framing": b}
                         for i, b in enumerate(framings)],
            "edges": [[f"v{i}", f"v{i + 1}"] for i in range(length - 1)]}


def random_tree(size: int, seed: int, colors) -> dict:
    """Plumbing document of a random tree drawn from a fixed seed.

    Vertex i > 0 joins an earlier vertex, one time in three among the first
    quarter of them, so several vertices have degree 3 or more (negative
    powers of the quantum dimension).  Four vertices other than v0 are link
    vertices carrying ``colors`` in turn.  Framings in [-3, 3] are drawn
    from the leaves up so that the value leaf elimination leaves on each
    surgery vertex is a unit mod 6, except on v0, where it is 0 mod 6: the
    linking matrix then has corank exactly 1 mod 2 and mod 3, and both
    refinements have more than one structure.
    """
    rng = random.Random(seed)
    parent = [None] + [rng.randrange(max(1, i // 4)) if rng.random() < 1 / 3
                       else rng.randrange(i) for i in range(1, size)]
    links = set(rng.sample(range(1, size), 4))
    framings = [rng.randint(-3, 3) for _ in range(size)]
    # a unit x mod 6 is its own inverse, so eliminating it subtracts x
    value = [0] * size
    for i in range(size - 1, -1, -1):
        if i in links:
            continue
        want = (0,) if i == 0 else (1, 5)
        framings[i] = rng.choice([b for b in range(-3, 4)
                                  if (b + value[i]) % 6 in want])
        value[i] = (framings[i] + value[i]) % 6
        p = parent[i]
        if p is not None and p not in links:
            value[p] -= value[i]
    vertices = [{"id": f"v{i}", "framing": b} for i, b in enumerate(framings)]
    for k, i in enumerate(sorted(links)):
        vertices[i]["link"] = colors[k % len(colors)]
    return {"vertices": vertices,
            "edges": [[f"v{p}", f"v{i}"] for i, p in enumerate(parent) if i]}


# link colours of degree 0 mod gcd(N, K), so the refined values still sum
# to the invariant
GENERATED = {
    "chain300": lambda: long_chain(300, 2026),
    "tree200su": lambda: random_tree(200, 2026, [
        {"lambda": [1]}, {"lambda": [2, 1]}, {"lambda": [3, 1]},
        {"lambda": [2, 2]}]),
    "tree200red33": lambda: random_tree(200, 2026, [
        {"i": 0, "lambda": [2, 1]}, {"i": 1}]),
    "tree200red26": lambda: random_tree(200, 2026, [
        {"i": 0, "lambda": [2]}, {"i": 0, "lambda": [4]}]),
}


def command_key(argv) -> str:
    return " ".join(argv)


def run_command(argv, tmp_path) -> dict:
    """Exit code and sha256 of the JSON file one command writes."""
    out = tmp_path / "out.json"
    if out.exists():
        out.unlink()
    args = []
    for a in argv:
        if a.startswith("@") and a[1:] in GENERATED:
            path = tmp_path / f"{a[1:]}.json"
            path.write_text(json.dumps(GENERATED[a[1:]]()))
            a = str(path)
        elif a.startswith("@"):
            a = str(MANIFESTS / f"{a[1:]}.json")
        args.append(a)
    code = main(args + ["--json", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() \
        if out.exists() else None
    return {"exit": code, "sha256": digest}


@pytest.mark.parametrize("argv", COMMANDS, ids=command_key)
def test_cli_output_matches_golden(argv, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    assert run_command(argv, tmp_path) == golden[command_key(argv)]
    capsys.readouterr()
