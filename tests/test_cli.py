import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod.cli import (
    MANIFEST_NAMES,
    _scalar_writer,
    canonical_json,
    load_manifest,
    main,
    manifest_graph,
    verification_gates,
)
from heckemod import cli, moddata
from heckemod.hecke import MAX_STRANDS, homfly_braid_closure
from heckemod.moddata import build_modular_data
from heckemod.scalars import (
    ExtScalar,
    ScalarError,
    scalar_to_json,
    su_parameters,
)
from heckemod.surgery import parse_plumbing, plumbing_to_json, tau

from helpers import scalar_from_json


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


def json_dumps_oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_keys = st.text() | st.sampled_from(["", "a", "\"", "\\", "\n\t", "\u00e9",
                                     "\u2028", "\U0001f600", "\x00"])
_leaves = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
           | st.floats(allow_nan=True, allow_infinity=True) | _keys)
_docs = st.recursive(
    _leaves,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.lists(st.integers(), max_size=4)
                  | st.lists(st.integers() | st.booleans(), max_size=4)
                  | st.dictionaries(_keys, kids, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(doc=_docs, shared=st.dictionaries(_keys, _docs, min_size=1,
                                         max_size=3))
def test_canonical_json_matches_json_dumps(doc, shared):
    assert canonical_json(doc) == json_dumps_oracle(doc)
    # one dict object twice at the same depth and again at other depths:
    # its text depends on the depth it is written at
    nested = {"a": shared, "b": [shared, shared], "c": {"d": [doc, shared]},
              "e": [], "f": {}, "g": [[], {}, [[]]]}
    assert canonical_json(nested) == json_dumps_oracle(nested)
    assert canonical_json([shared, nested]) == json_dumps_oracle(
        [shared, nested])


def test_scalar_writer_keys_on_representation():
    # scalars that write different documents although a value key would
    # merge them (a zero ExtScalar is equal, and hashes alike, at either
    # eta parity) or a nums/den key would (fields of different order, or
    # the same base under a different omega)
    ring16, ring20 = su_parameters(2, 2), su_parameters(2, 3)
    assert ring16.degree == ring20.degree and ring16.M != ring20.M
    coeffs = [1, -2, 0, 3, 0, 0, 5, -1]
    omega = ring16.from_rational(4)
    zero0 = ExtScalar(ring16.zero(), 0, "reduced", omega)
    zero1 = ExtScalar(ring16.zero(), 1, "reduced", omega)
    assert zero0 == zero1 and hash(zero0) == hash(zero1)
    values = [zero0, zero1, zero0,
              ExtScalar(ring16.zero(), 1, "su", omega),
              ExtScalar(ring16.one(), 1, "reduced", omega),
              ExtScalar(ring16.one(), 1, "reduced", ring16.from_rational(9)),
              ring16.from_coeffs(coeffs), ring20.from_coeffs(coeffs),
              ring16.from_coeffs(coeffs), ring16.zero(), ring20.zero()]
    write = _scalar_writer(20)
    doc = {"values": [write(x) for x in values]}
    assert doc == {"values": [scalar_to_json(x, 20) for x in values]}
    assert canonical_json(doc) == json_dumps_oracle(
        {"values": [scalar_to_json(x, 20) for x in values]})


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


@pytest.mark.parametrize("N, K", [(3, 5), (5, 3), (3, 6), (6, 3)])
def test_verify_reports_reduction_failure(capsys, N, K):
    # the reduction gate reads all 7 manifests at either depth, so the
    # quick default also sees chain_-2_-2 fail at (3,6) and (6,3)
    code, out = run(capsys, "verify", str(N), str(K))
    assert code == 3
    gates = json.loads(out)["gates"]
    assert [name for name, ok in gates.items() if not ok] \
        == ["reduction_formula"]


def test_verify_reads_each_manifest_once(monkeypatch):
    calls = []

    def counting(name):
        calls.append(name)
        return load_manifest(name)

    monkeypatch.setattr(cli, "load_manifest", counting)
    verification_gates(2, 3)
    assert sorted(calls) == sorted(MANIFEST_NAMES)  # 7 calls, one each


def test_hecke_check_passes(capsys):
    code, out = run(capsys, "hecke-check", "2", "2")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


@pytest.mark.parametrize("command", ["verify", "hecke-check"])
def test_smallest_rank_level_passes(capsys, command):
    # at N + K = 3 there is no size-3 symmetrizer or path idempotent
    code, out = run(capsys, command, "2", "1")
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
    # a malformed structure, not a ValueError traceback
    for structure in ("a", ",", "1,x"):
        assert main(["invariant", "--manifold", manifest_path("u0"), "3", "3",
                     "--theory", "reduced", "--refined", "coho",
                     "--structure", structure]) == 1
    # no strands at all, not the value 1 of an empty closure
    assert main(["homfly", "2", "3", "--strands", "0"]) == 1
    assert main(["homfly", "2", "3", "--strands", "-3"]) == 1
    # above the strand cap: a usage error, not a computation error
    assert main(["homfly", "2", "3", "--strands", str(MAX_STRANDS + 1)]) == 1
    # an unwritable output path, not a FileNotFoundError traceback
    assert main(["modular-data", "2", "3", "--json",
                 "/nonexistent/dir/x.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: cannot write" in captured.err


@pytest.mark.parametrize("doc", [
    {"vertices": [{"id": "a", "framing": 1.7}]},
    {"vertices": [{"id": "a", "framing": True}]},
    {"vertices": [{"id": "a", "framing": "1"}]},
    {"vertices": [{"id": "a", "framing": 1}], "edges": [["a"]]},
    {"vertices": 5},
    5,
    {"vertices": [{"id": "a", "framing": 0, "link": {"i": "x"}}]},
    {"vertices": [{"id": "a", "framing": 0, "link": {"lambda": "ab"}}]},
    {"vertices": [{"id": "a", "framing": 0, "link": {"lambda": [0]}}]},
    {"vertices": [{"id": "a", "framing": 0, "link": {"lambda": [1, 2]}}]},
    {"vertices": [{"id": None, "framing": 0}]},
    {"vertices": [{"id": True, "framing": 0}]},
    {"vertices": [{"id": 1.5, "framing": 0}]},
    {"vertices": [{"id": {"a": 1}, "framing": 0}]},
    {"vertices": [{"id": "1", "framing": 0}, {"id": "a", "framing": 0}],
     "edges": [[1, "a"]]},
    {"vertices": [{"id": 1, "framing": 0}, {"id": "1", "framing": 0}]},
], ids=["float-framing", "bool-framing", "string-framing", "short-edge",
        "vertices-not-list", "document-not-object", "string-color-index",
        "string-lambda", "zero-row", "increasing-rows", "null-id", "bool-id",
        "float-id", "object-id", "integer-endpoint", "integer-id"])
def test_malformed_plumbing_exit(doc, tmp_path, capsys):
    # a malformed document is a computation error naming the bad record,
    # never a coerced value or a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["invariant", "--manifold", str(path), "2", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("computation error:")


@pytest.mark.parametrize("content", [
    b'{"vertices": [{"id": "\xff", "framing": 0}]}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"vertices": [{"id": "a", "framing": ' + b"1" * 5000 + b"}]}",
], ids=["not-utf8", "nested-100000-deep", "integer-5000-digits"])
def test_undecodable_manifold_exit(content, tmp_path, capsys):
    # a file that json cannot decode is a usage error, never a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["invariant", "--manifold", str(path), "2", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


def test_computation_error_exit(capsys):
    # a spin rank-level has no degree-zero invariant
    assert main(["invariant", "--manifold", manifest_path("u0"), "2", "2",
                 "--theory", "psu"]) == 2
    capsys.readouterr()


def test_link_color_i_defaults_to_zero(tmp_path, capsys):
    # the README's colour {"lambda": [1]} is the reduced label (0, [1]);
    # in su only i = 0 names a label
    def invariant(color, *theory):
        path = tmp_path / "link.json"
        path.write_text(json.dumps(
            {"vertices": [{"id": "v1", "framing": -2},
                          {"id": "w", "framing": 0, "link": color}],
             "edges": [["v1", "w"]]}))
        code = main(["invariant", "--manifold", str(path), "2", "3", *theory])
        return (code, *capsys.readouterr())

    reduced = invariant({"lambda": [1]}, "--theory", "reduced")
    assert reduced[0] == 0
    assert invariant({"i": 0, "lambda": [1]}, "--theory", "reduced") == reduced
    su = invariant({"lambda": [1]})
    assert su[0] == 0 and invariant({"i": 0, "lambda": [1]}) == su
    code, out, err = invariant({"i": 1, "lambda": [1]})
    assert (code, out) == (2, "") and "unknown color label" in err


def test_verification_failure_exit(capsys):
    # the degree-zero sector is degenerate at gcd(3,3) = 3: the report
    # records the failing identities and the command signals them
    code, out = run(capsys, "modular-data", "3", "3", "--theory", "psu")
    assert code == 3
    doc = json.loads(out)
    assert doc["report"]["modular"] is False


def test_failed_construction_identity_is_fatal(monkeypatch, tmp_path, capsys):
    # one wrong entry of S in the modularity check of the build (S_00 + c,
    # read by the gate as S_00/c + 1, which its field width holds): a
    # computation error for every theory except psu at gcd(N, K) > 1,
    # where a failed modularity check is reported (exit 3) rather than raised
    is_modular = moddata._is_modular

    def spoiled(ring, rows, conj, width, scale, omega):
        rows[0][0] += 1
        return is_modular(ring, rows, conj, width, scale, omega)

    monkeypatch.setattr(moddata, "_is_modular", spoiled)
    for N, K, theory in [(3, 3, "su"), (3, 3, "reduced"), (2, 3, "psu")]:
        with pytest.raises(ScalarError, match="modular"):
            build_modular_data(N, K, theory)
        assert main(["invariant", "--manifold", manifest_path("u0"), str(N),
                     str(K), "--theory", theory]) == 2
    assert capsys.readouterr().out == ""
    data = build_modular_data(3, 3, "psu")
    assert data.report["modular"] is False
    assert data.report["delta_product"] is False
    out = tmp_path / "psu.json"
    assert main(["modular-data", "3", "3", "--theory", "psu",
                 "--json", str(out)]) == 3
    golden = json.loads(
        Path(__file__).with_name("golden_outputs.json").read_text())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        golden["modular-data 3 3 --theory psu"]["sha256"]


# ---------------------------------------------------------------------------
# python -m heckemod
# ---------------------------------------------------------------------------

def run_module(argv):
    """``python -m heckemod *argv`` in a fresh interpreter on this source
    tree: (exit code, stdout bytes, stderr text)."""
    import heckemod
    src = str(Path(heckemod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "heckemod", *argv],
                          env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def first_line(text):
    return text.split("\n", 1)[0]


@pytest.mark.parametrize("argv", [
    ["modular-data", "2", "3"],
    # the degenerate psu theory exits 3 and still writes its document
    ["modular-data", "3", "3", "--theory", "psu"],
    # usage errors raised inside argparse: a bad choice, a missing option
    ["modular-data", "2", "3", "--theory", "sl"],
    ["homfly", "2", "3"]])
def test_python_m_matches_in_process_main(argv, tmp_path, capsys):
    sub = tmp_path / "sub.json"
    sub_code, sub_out, sub_err = run_module([*argv, "--json", str(sub)])
    own = tmp_path / "own.json"
    code = main([*argv, "--json", str(own)])
    captured = capsys.readouterr()
    assert sub_code == code
    assert sub_out == captured.out.encode()
    assert first_line(sub_err) == first_line(captured.err)
    assert sub.exists() == own.exists()
    if own.exists():
        assert sub.read_bytes() == own.read_bytes()


def test_in_process_sequence_matches_each_call_alone(capsys):
    # the parser is shared by every main() call of a process: no call may
    # see state left by an earlier one, whether it failed or not
    u0 = manifest_path("u0")
    sequence = [
        (["modular-data", "2", "3", "--theory", "sl"], 1),
        (["modular-data", "2", "3"], 0),
        (["invariant", "--manifold", u0, "2", "2", "--theory", "psu"], 2),
        (["invariant", "--manifold", u0, "2", "2"], 0),
        (["verify", "2", "2"], 0),
    ]
    for argv, want in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        alone = run_module(argv)
        assert code == want == alone[0]
        assert captured.out.encode() == alone[1]
        assert first_line(captured.err) == first_line(alone[2])
