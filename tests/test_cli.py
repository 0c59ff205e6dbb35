import json

import pytest

from heckemod.cli import (
    MANIFEST_NAMES,
    load_manifest,
    main,
    manifest_graph,
)
from heckemod.hecke import homfly_braid_closure
from heckemod.moddata import build_modular_data
from heckemod.scalars import scalar_from_json, su_parameters
from heckemod.surgery import parse_plumbing, plumbing_to_json, tau


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def manifest_path(name):
    import heckemod
    import os
    return os.path.join(os.path.dirname(heckemod.__file__),
                        "manifests", f"{name}.json")


# ---------------------------------------------------------------------------
# output shape and determinism
# ---------------------------------------------------------------------------

def test_modular_data_output(capsys):
    code, out = run(capsys, "modular-data", "2", "2", "--theory", "su")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["[]", "[1]", "[2]"]
    assert all(doc["report"].values())
    ctx = su_parameters(2, 2)
    data = build_modular_data(2, 2, "su")
    assert scalar_from_json(doc["omega"], ctx) == data.omega
    assert scalar_from_json(doc["dims"][1], ctx) == data.dims[1]


def test_byte_stability(capsys):
    runs = [run(capsys, "modular-data", "3", "3", "--theory", "reduced"),
            run(capsys, "modular-data", "3", "3", "--theory", "reduced")]
    assert runs[0] == runs[1]
    runs = [run(capsys, "verify", "2", "2"), run(capsys, "verify", "2", "2")]
    assert runs[0] == runs[1]


def test_json_file_output(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out = run(capsys, "homfly", "--braid", "1,1,1", "--strands", "2",
                    "2", "2", "--json", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    ctx = su_parameters(2, 2)
    assert scalar_from_json(doc["value"], ctx) == \
        homfly_braid_closure([1, 1, 1], 2, ctx)


# ---------------------------------------------------------------------------
# bundled manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip():
    for name in MANIFEST_NAMES:
        doc = load_manifest(name)["graph"]
        g = parse_plumbing(doc)
        assert plumbing_to_json(g) == doc
        assert parse_plumbing(plumbing_to_json(g)) == g


def test_manifest_fixtures_match():
    datasets = {key: build_modular_data(int(key[-4]), int(key[-2]),
                                        key.split("(")[0])
                for key in ["su(2,2)", "reduced(2,2)", "su(3,3)",
                            "reduced(3,3)", "psu(2,3)"]}
    for name in MANIFEST_NAMES:
        exp = load_manifest(name)["expected"]
        g = manifest_graph(name)
        for key, want in exp["invariants"].items():
            res = tau(g, datasets[key])
            assert res.signature == exp["signature"]
            assert abs(res.value.embed()
                       - complex(want["re"], want["im"])) < 1e-9, (name, key)


def test_invariant_command_refined(capsys):
    code, out = run(capsys, "invariant", "--manifold", manifest_path("u0"),
                    "2", "2", "--theory", "reduced", "--refined", "spin",
                    "--all-structures")
    assert code == 0
    doc = json.loads(out)
    assert doc["refined"]["decomposition_ok"] is True
    assert [r["structure"] for r in doc["refined"]["structures"]] \
        == [[0], [1]]
    code2, out2 = run(capsys, "invariant", "--manifold", manifest_path("u0"),
                      "2", "2", "--theory", "reduced", "--refined", "spin",
                      "--structure", "1")
    assert code2 == 0
    one = json.loads(out2)["refined"]["value"]
    assert one == doc["refined"]["structures"][1]["value"]


def test_verify_quick_passes(capsys):
    for N, K in [(2, 2), (2, 3)]:
        code, out = run(capsys, "verify", str(N), str(K))
        assert code == 0
        assert json.loads(out)["all_pass"] is True


def test_hecke_check_passes(capsys):
    code, out = run(capsys, "hecke-check", "2", "2")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors(capsys):
    assert main(["modular-data", "1", "2"]) == 1
    assert main(["invariant", "2", "2"]) == 1
    assert main(["invariant", "--manifold", "/does/not/exist.json",
                 "2", "2"]) == 1
    assert main(["homfly", "--braid", "5", "--strands", "2", "2", "2"]) == 1
    assert main(["homfly", "--braid", "x", "--strands", "2", "2", "2"]) == 1
    assert main(["invariant", "--manifold", manifest_path("u0"), "2", "2",
                 "--theory", "su", "--refined", "spin",
                 "--all-structures"]) == 1
    assert main(["invariant", "--manifold", manifest_path("u0"), "2", "2",
                 "--all-structures"]) == 1
    # below the embedding's minimum, rejected before any computation
    assert main(["modular-data", "2", "2", "--precision", "14"]) == 1
    assert main(["homfly", "--braid", "1", "--strands", "2", "2", "2",
                 "--precision", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    {"vertices": [{"id": "a", "framing": 1.7}]},
    {"vertices": [{"id": "a", "framing": True}]},
    {"vertices": [{"id": "a", "framing": "1"}]},
    {"vertices": [{"id": "a", "framing": 1}], "edges": [["a"]]},
    {"vertices": 5},
], ids=["float-framing", "bool-framing", "string-framing", "short-edge",
        "vertices-not-list"])
def test_malformed_plumbing_exit(doc, tmp_path, capsys):
    # a malformed document is a computation error naming the bad record,
    # never a coerced value or a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["invariant", "--manifold", str(path), "2", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("computation error:")


def test_computation_error_exit(capsys):
    # a spin rank-level has no degree-zero invariant
    assert main(["invariant", "--manifold", manifest_path("u0"), "2", "2",
                 "--theory", "psu"]) == 2
    capsys.readouterr()


def test_verification_failure_exit(capsys):
    # the degree-zero sector is degenerate at gcd(3,3) = 3: the report
    # records the failing identities and the command signals them
    code, out = run(capsys, "modular-data", "3", "3", "--theory", "psu")
    assert code == 3
    doc = json.loads(out)
    assert doc["report"]["modular"] is False
