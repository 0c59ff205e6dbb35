"""Byte-for-byte golden outputs of the CLI.

``golden_outputs.json`` holds, for each command below, the exit code and the
sha256 of the bytes written by ``--json``.  The values were recorded before
the scalar core moved from Fraction vectors to integer vectors, so any change
to exact values, to the canonical ``num``/``den`` form or to the printed
approximations shows here.
"""

import hashlib
import json
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
)


def command_key(argv) -> str:
    return " ".join(argv)


def run_command(argv, tmp_path) -> dict:
    """Exit code and sha256 of the JSON file one command writes."""
    out = tmp_path / "out.json"
    if out.exists():
        out.unlink()
    args = [str(MANIFESTS / f"{a[1:]}.json") if a.startswith("@") else a
            for a in argv]
    code = main(args + ["--json", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() \
        if out.exists() else None
    return {"exit": code, "sha256": digest}


@pytest.mark.parametrize("argv", COMMANDS, ids=command_key)
def test_cli_output_matches_golden(argv, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    assert run_command(argv, tmp_path) == golden[command_key(argv)]
    capsys.readouterr()
