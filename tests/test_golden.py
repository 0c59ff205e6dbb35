"""Byte-for-byte golden outputs of the CLI.

``golden_outputs.json`` holds, for each command below, the exit code and the
sha256 of the bytes written by ``--json``.  The ``modular-data`` and
``invariant`` values were recorded before the scalar core moved from Fraction
vectors to integer vectors, the ``verify`` and ``hecke-check`` values before
the signature moved to leaf elimination over the forest, and the
``modular-data 4 4`` and ``verify 3 4`` values, where the packing width is
largest, before the modularity check and fusion moved to packed integer dot
products, and the 300-vertex chain values before the characteristic
structures moved to leaf elimination over the forest, so any change to
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


GENERATED = {"chain300": lambda: long_chain(300, 2026)}


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
