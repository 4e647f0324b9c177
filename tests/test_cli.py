import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from tricode import codes, complexes, serialize
from tricode.cli import console_main, main, run_manifest

from conftest import del_del_nonzero

MANIFEST = os.path.join(os.path.dirname(__file__), "..", "manifests", "t3.manifest.json")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_complex_build_validate_roundtrip(workdir):
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    assert main(["complex", "validate", "t3.json"]) == 0
    data = serialize.read("t3.json")
    assert data["dims"] == 3
    K = serialize.complex_from_json(data)
    assert K.counts == [1, 7, 12, 6]
    assert "axb" in K.cycles


def test_complex_presets(workdir):
    for preset, counts in (
        ("sigma:2", [1, 9, 6]),
        ("sigma-rot:2", [2, 12, 8]),
        ("product:1,1", [1, 7, 12, 6]),
        ("circle:4", [4, 4]),
    ):
        assert main(["complex", "build", "--preset", preset, "--out", "k.json"]) == 0
        assert serialize.complex_from_json(serialize.read("k.json")).counts == counts


def test_complex_subdivide(workdir):
    main(["complex", "build", "--preset", "sigma:1", "--out", "s.json"])
    assert main(["complex", "subdivide", "s.json", "--out", "sd.json"]) == 0
    assert serialize.complex_from_json(serialize.read("sd.json")).counts == [6, 18, 12]


def test_mapping_torus_preset(workdir):
    serialize.write("twist.json", {"base_preset": "sigma-rot:2", "layers": 1,
                                   "kind": "rotation", "handles": 1})
    assert main(["complex", "build", "--preset", "mapping-torus",
                 "--twist", "twist.json", "--out", "mt.json"]) == 0
    assert main(["homology", "betti", "mt.json", "--out", "b.json"]) == 0
    assert serialize.read("b.json")["betti"] == [1, 3, 3, 1]


@pytest.mark.parametrize("spec, why", [
    ([{"base_preset": "sigma-rot:2"}], "a twist spec file must hold a JSON object, not list"),
    ({"base_preset": "sigma-rot:2", "layers": "2"}, "'layers' must be an int, not str"),
    ({"base_preset": 5}, "'base_preset' must be a string, not int"),
    ({"base_preset": "sigma-rot:2", "kind": "perm", "perm": 5}, "'perm' must be a list, not int"),
    ({"base_preset": "sigma-rot:2", "kind": "rotation", "handles": "x"},
     "'handles' must be an int, not str"),
    ({"base_preset": "sigma-rot:2", "kind": "perm", "perm": [[0], 5]},
     "'perm' must be a list of per-dimension lists of ints"),
    ({"base_preset": "t3", "kind": "rotation"}, "a rotation twist needs a sigma-rot:g base_preset"),
], ids=["list", "layers", "base_preset", "perm", "handles", "perm entry", "rotation base"])
def test_twist_specs_are_checked(workdir, spec, why):
    # each of these used to escape run_manifest as a traceback
    serialize.write("bad.json", spec)
    step = ["complex", "build", "--preset", "mapping-torus", "--twist", "bad.json", "--out", "mt.json"]
    serialize.write("one.manifest.json", {"steps": [step]})
    assert run_manifest("one.manifest.json") == (
        1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"])
    assert not os.path.exists("mt.json")


def test_validate_catches_corruption(workdir):
    main(["complex", "build", "--preset", "t3", "--out", "t3.json"])
    data = serialize.read("t3.json")
    for entry in data["simplices"]:
        if entry["dim"] == 2:
            entry["faces"][0] = 99
            break
    serialize.write("bad.json", data)
    assert main(["complex", "validate", "bad.json"]) == 1


def test_homology_and_cup_cli(workdir, capsys):
    main(["complex", "build", "--preset", "product:2,1", "--out", "p.json"])
    assert main(["homology", "betti", "p.json", "--dim", "1"]) == 0
    assert "b_1 = 5" in capsys.readouterr().out
    assert main(["cup", "form", "p.json", "--out", "form.json"]) == 0
    form = serialize.read("form.json")
    assert len(form["unit_triples"]) == 2
    assert main(["homology", "basis", "p.json", "--dim", "1", "--out", "basis.json"]) == 0
    assert len(serialize.read("basis.json")["cycles"]) == 5


def test_cup_triple_cli(workdir, capsys):
    main(["complex", "build", "--preset", "t3", "--out", "t3.json"])
    assert main(["cup", "triple", "t3.json", "--cocycles", "0,1,2"]) == 0
    assert "integral = 1" in capsys.readouterr().out


def test_snf_cli(workdir, capsys):
    serialize.write("m.json", serialize.matrix_to_json([[2, 4], [6, 8]]))
    assert main(["snf", "m.json"]) == 0
    assert "2 4" in capsys.readouterr().out


def test_code_and_gate_cli(workdir, capsys):
    main(["complex", "build", "--preset", "t3", "--out", "t3.json"])
    assert main(["code", "build", "t3.json", "--type", "toric:3", "--out", "c.json"]) == 0
    assert main(["code", "build", "t3.json", "--type", "color", "--out", "cc.json"]) == 0
    assert serialize.read("cc.json")["n"] == 144
    assert main(["code", "distance", "c.json", "--sector", "z"]) == 0
    assert "d_z=1" in capsys.readouterr().out
    assert main(["gate", "ccz", "t3.json", "--out", "ccz.json"]) == 0
    assert main(["gate", "check", "ccz.json", "c.json"]) == 0
    assert main(["gate", "action", "ccz.json", "c.json", "--out", "act.json"]) == 0
    assert serialize.read("act.json")["k"] == 9
    assert main(["gate", "t", "cc.json", "--out", "t.json"]) == 0
    assert len(serialize.read("t.json")["gates"]) == 144
    assert main(["gate", "simulate", "ccz.json", "c.json", "--plus", "all",
                 "--out", "state.json"]) == 0
    assert len(serialize.read("state.json")["phases"]) == 512


def test_gate_action_on_sigma2_circle_color_code(workdir):
    assert main(["complex", "build", "--preset", "product:2,1", "--out", "k.json"]) == 0
    assert main(["code", "build", "k.json", "--type", "color", "--out", "cc.json"]) == 0
    assert main(["gate", "t", "cc.json", "--out", "t.json"]) == 0
    assert main(["gate", "action", "t.json", "cc.json", "--out", "act.json"]) == 0
    act = serialize.read("act.json")
    assert act["k"] == 15
    assert len(act["gates"]) == 18 and {kind for kind, _ in act["gates"]} == {"CCZ"}


def test_gate_check_rejects_size_mismatch_in_every_mode(workdir):
    main(["complex", "build", "--preset", "t3", "--out", "t3.json"])
    main(["code", "build", "t3.json", "--type", "toric:1", "--out", "code1.json"])
    main(["gate", "ccz", "t3.json", "--out", "ccz.json"])
    with pytest.raises(ValueError, match="qubits but the code has"):
        main(["gate", "check", "ccz.json", "code1.json"])
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tricode.cli", "gate", "check", "ccz.json", "code1.json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode != 0
    assert "PASS" not in proc.stdout + proc.stderr
    assert "qubits but the code has" in proc.stderr


def test_matrix_loader_rejects_wrong_shape_under_O(workdir):
    serialize.write("rows.json", {"rows": 3, "cols": 2, "entries": [[2, 0], [0, 3]]})
    serialize.write("cols.json", {"rows": 2, "cols": 2, "entries": [[2, 0], [0]]})
    with pytest.raises(ValueError, match="2 rows but declares 3"):
        main(["snf", "rows.json"])
    with pytest.raises(ValueError, match="row 1 has 1 entries"):
        main(["snf", "cols.json"])
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tricode.cli", "snf", "rows.json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode != 0
    assert "2 rows but declares 3" in proc.stderr


def test_backengineer_trees_creates_output_directory(tmp_path):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    outdir = tmp_path / "fresh" / "dots"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "backengineer_trees.py"), str(outdir)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in outdir.iterdir())
    assert written == ["genus13-tree.dot", "point.dot", "shared-pair.dot", "two-prong.dot"]


def test_gate_cz_cli(workdir):
    main(["complex", "build", "--preset", "product:2,1", "--out", "p.json"])
    K = serialize.complex_from_json(serialize.read("p.json"))
    dim, cells = K.cycles["a1xc"]
    serialize.write("memb.json", {"dim": dim, "support": sorted(cells)})
    assert main(["gate", "cz", "p.json", "--membrane", "memb.json",
                 "--copies", "1,2", "--out", "cz.json"]) == 0
    main(["code", "build", "p.json", "--type", "toric:3", "--out", "c.json"])
    assert main(["gate", "action", "cz.json", "c.json", "--out", "act.json"]) == 0
    gates = serialize.read("act.json")["gates"]
    assert len(gates) == 2


def test_mcg_cli(workdir, capsys):
    serialize.write("n.json", serialize.matrix_to_json([[4, 8], [0, 4]]))
    assert main(["mcg", "thurston", "--n", "n.json", "--word", "A B"]) == 0
    out = capsys.readouterr().out
    assert "93.2548" in out and "91.2439" in out and "pA=yes" in out
    assert main(["mcg", "twist", "--genus", "2", "--curve", "a:1", "--out", "tw.json"]) == 0
    assert serialize.read("tw.json")["entries"][0] == [1, 0, 1, 0]
    serialize.write("m.json", serialize.matrix_to_json(
        [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert main(["mcg", "torus-homology", "--matrix", "m.json", "--coeff", "z"]) == 0
    assert "Z^4" in capsys.readouterr().out
    assert main(["mcg", "thickened", "--genus", "2", "--sequence", "b:2 b:1 f:1"]) == 0
    out = capsys.readouterr().out
    assert "a1xc -> a1xc + b2xc" in out


def test_hypergraph_and_sullivan_cli(workdir, capsys):
    serialize.write("mu.json", {"m": 5, "coeffs": {"1,2,3": 1, "1,4,5": 1}})
    assert main(["sullivan", "synth", "mu.json", "--out", "tau.json"]) == 0
    assert serialize.read("tau.json")["fixes_kernel"] is True
    assert main(["sullivan", "roundtrip", "mu.json"]) == 0
    assert main(["hypergraph", "build", "mu.json", "--lift", "--out", "h.json"]) == 0
    assert len(serialize.read("h.json")["hyperedges"]) == 12
    assert main(["hypergraph", "degrees", "h.json"]) == 0
    assert "max degree" in capsys.readouterr().out
    assert main(["hypergraph", "build", "mu.json", "--export", "dot", "--out", "h.dot"]) == 0
    assert open("h.dot").read().startswith("graph hypergraph")


def test_report_cli(workdir, capsys):
    main(["complex", "build", "--preset", "t3", "--out", "t3.json"])
    main(["code", "build", "t3.json", "--type", "toric:3", "--out", "c.json"])
    assert main(["report", "c.json"]) == 0
    assert "n=21 k=9 d_z=1(exact)" in capsys.readouterr().out


def test_report_is_exact_on_the_l4_cover(workdir, capsys):
    # the toric code's X checks are a graph, so report needs no budget; it
    # used to spend minutes enumerating and print d_z=None(bound)
    from test_local_check import t3_cover

    serialize.write("c4.json", serialize.code_to_json(codes.toric_code(t3_cover(4), 3)))
    t0 = time.perf_counter()
    assert main(["report", "c4.json"]) == 0
    elapsed = time.perf_counter() - t0
    assert capsys.readouterr().out == "n=1344 k=9 d_z=4(exact)\n"
    assert elapsed < 2.0, f"report on the L = 4 cover took {elapsed:.1f}s"


def test_manifest_end_to_end(workdir):
    rc, lines = run_manifest(MANIFEST)
    assert rc == 0
    assert sum(1 for l in lines if l.startswith("PASS")) == 11


def test_manifest_detects_perturbed_expectation(workdir, tmp_path):
    manifest = serialize.read(MANIFEST)
    for exp in manifest["expect"]:
        if exp["path"] == "betti":
            exp["value"] = [1, 4, 3, 1]
    serialize.write("bad.manifest.json", manifest)
    rc, lines = run_manifest("bad.manifest.json")
    assert rc == 1
    assert any(l.startswith("FAIL") and "betti" in l for l in lines)


def test_manifest_reports_failing_steps(workdir):
    serialize.write("usage.json", {"steps": [["complex", "build", "--no-such-flag"],
                                             ["complex", "build", "--preset", "t3"]]})
    rc, lines = run_manifest("usage.json")
    assert rc == 2
    assert lines == ["step 0 failed (exit 2): complex build --no-such-flag"]
    serialize.write("preset.json", {"steps": [["complex", "build", "--preset", "nope"]]})
    assert run_manifest("preset.json") == (
        1, ["step 0 failed (unknown preset 'nope'): complex build --preset nope"])
    # a single CCZ is not a logical gate of three toric copies on T^2 x S^1
    assert main(["complex", "build", "--preset", "product:1,2", "--out", "k.json"]) == 0
    E = serialize.complex_from_json(serialize.read("k.json")).n_cells(1)
    serialize.write("one.json", {"n": 3 * E, "gates": [["CCZ", [0, E, 2 * E]]]})
    serialize.write("action.json", {"steps": [
        ["code", "build", "k.json", "--type", "toric:3", "--out", "c.json"],
        ["gate", "action", "one.json", "c.json", "--out", "act.json"],
        ["complex", "build", "--preset", "t3", "--out", "never.json"]]})
    rc, lines = run_manifest("action.json")
    assert rc == 1
    assert lines[0] == "step 0 ok: code build k.json --type toric:3 --out c.json"
    assert lines[1].startswith("step 1 failed (ValueError: not a logical gate: FAIL")
    assert len(lines) == 2 and not os.path.exists("never.json")
    # a missing input file and a code file without a required key
    code = serialize.read("c.json")
    del code["logical_x"]
    serialize.write("badcode.json", code)
    serialize.write("missing.manifest.json",
                    {"steps": [["gate", "action", "missing.json", "c.json"]]})
    serialize.write("nokey.manifest.json", {"steps": [["gate", "check", "one.json", "badcode.json"]]})
    rc, lines = run_manifest("missing.manifest.json")
    assert rc == 1 and len(lines) == 1
    assert lines[0].startswith("step 0 failed (FileNotFoundError: ")
    assert lines[0].endswith("'missing.json'): gate action missing.json c.json")
    assert run_manifest("nokey.manifest.json") == (
        1, ["step 0 failed (KeyError: 'logical_x'): gate check one.json badcode.json"])


def test_manifest_reports_action_with_logical_outside_ker_hz(workdir):
    # one edge added to logical X 0 gives it a Z-syndrome: the check still
    # passes (the generators are completed), the action is refused
    assert main(["complex", "build", "--preset", "product:1,2", "--out", "k.json"]) == 0
    assert main(["code", "build", "k.json", "--type", "toric:3", "--out", "c.json"]) == 0
    code = serialize.read("c.json")
    code["logical_x"][0] = sorted(set(code["logical_x"][0]) ^ {0})
    serialize.write("bent.json", code)
    serialize.write("bent.manifest.json", {"steps": [
        ["gate", "ccz", "k.json", "--out", "ccz.json"],
        ["gate", "check", "ccz.json", "bent.json"],
        ["gate", "action", "ccz.json", "bent.json"]]})
    rc, lines = run_manifest("bent.manifest.json")
    assert rc == 1
    assert lines[1] == "step 1 ok: gate check ccz.json bent.json"
    assert lines[2] == ("step 2 failed (ValueError: logical X 0 has a Z-syndrome "
                        "(not in ker hz)): gate action ccz.json bent.json")


def test_empty_manifest_warns(workdir):
    serialize.write("empty.json", {})
    rc, lines = run_manifest("empty.json")
    assert rc == 0
    assert any("warning" in l for l in lines)


def test_manifest_outputs_deterministic(workdir):
    rc1, _ = run_manifest(MANIFEST)
    first = {f: open(f, "rb").read() for f in os.listdir(".") if f.endswith(".json")}
    rc2, _ = run_manifest(MANIFEST)
    second = {f: open(f, "rb").read() for f in os.listdir(".") if f.endswith(".json")}
    assert rc1 == rc2 == 0
    assert first == second


def test_circuit_json_roundtrip(workdir):
    from tricode.gates import DiagonalCircuit

    circ = DiagonalCircuit(5, [("CCZ", (0, 1, 2)), ("T", (4,))])
    back = serialize.circuit_from_json(json.loads(serialize.dumps(serialize.circuit_to_json(circ))))
    assert back.n == circ.n and back.gates == circ.gates
    for gates, message in [([["CCZ", [1]]], "gate CCZ acts on 3 qubit"),
                           ([["T", [0, 2]]], "gate T acts on 1 qubit"),
                           ([["CZ", [0, 1, 2]]], "gate CZ acts on 2 qubit"),
                           ([["Z", []]], "gate Z acts on 1 qubit")]:
        with pytest.raises(ValueError, match=message):
            serialize.circuit_from_json({"n": 3, "gates": gates})


def test_parser_built_once_per_process(workdir):
    # test_manifest_outputs_deterministic runs the manifest twice on the cached parser
    from tricode.cli import build_parser

    assert build_parser() is build_parser()
    assert main(["complex", "build", "--preset", "t3", "--out", "first.json"]) == 0
    for bad in (["complex", "build", "--no-such-flag"], ["code", "build"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert main(["complex", "build", "--preset", "t3", "--out", "again.json"]) == 0
    assert open("again.json", "rb").read() == open("first.json", "rb").read()


def test_manifest_reports_repeated_and_float_logical_qubits(workdir):
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    assert main(["code", "build", "t3.json", "--type", "toric:3", "--out", "c.json"]) == 0
    assert main(["gate", "ccz", "t3.json", "--out", "ccz.json"]) == 0
    good = serialize.read("c.json")
    first = good["logical_x"][0]
    for name, row in (("repeated", [first[0]] + first), ("float", [0.5])):
        serialize.write(f"{name}.json", dict(good, logical_x=[row] + good["logical_x"][1:]))
        serialize.write(f"{name}.manifest.json",
                        {"steps": [["gate", "check", "ccz.json", f"{name}.json"]]})
        rc, lines = run_manifest(f"{name}.manifest.json")
        assert rc == 1 and len(lines) == 1
        assert lines[0].startswith("step 0 failed (ValueError: logical_x row 0 is not an increasing")
        assert lines[0].endswith(f"): gate check ccz.json {name}.json")


def test_manifest_reports_bad_mcg_matrix_shapes(workdir):
    # a non-square mapping class used to print H_1 of its square part, and an
    # empty N used to escape run_manifest as an IndexError
    serialize.write("wide.json", serialize.matrix_to_json([[1, 0, 0], [0, 1, 0]]))
    serialize.write("empty.json", serialize.matrix_to_json([]))
    for step, why in [
        (["mcg", "torus-homology", "--matrix", "wide.json"],
         "the mapping class matrix must be square, not 2x3"),
        (["mcg", "torus-homology", "--matrix", "wide.json", "--coeff", "z2"],
         "the mapping class matrix must be square, not 2x3"),
        (["mcg", "torus-homology", "--matrix", "empty.json"],
         "the mapping class matrix is empty (0 rows, 0 columns)"),
        (["mcg", "thurston", "--n", "empty.json"],
         "the intersection matrix N is empty (0 rows, 0 columns)"),
    ]:
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step


def test_manifest_reports_missing_or_bad_arguments(workdir, capsys):
    # a missing option is a usage error: the action's parser requires it.
    # bfs refuses a sector whose checks do not make a graph (--sector x of a
    # 3D toric code, the color code)
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    assert main(["code", "build", "t3.json", "--type", "toric:3", "--out", "c.json"]) == 0
    assert main(["code", "build", "t3.json", "--type", "color", "--out", "cc.json"]) == 0
    K = serialize.complex_from_json(serialize.read("t3.json"))
    serialize.write("memb.json", {"dim": 2, "support": sorted(K.cycles["axb"][1])})
    serialize.write("n.json", serialize.matrix_to_json([[4, 8], [0, 4]]))
    for step, missing in [
        (["homology", "basis", "t3.json"], "--dim"),
        (["cup", "triple", "t3.json"], "--cocycles"),
        (["mcg", "twist", "--genus", "2"], "--curve"),
        (["mcg", "torus-homology"], "--matrix"),
        (["mcg", "thurston"], "--n"),
        (["mcg", "thickened"], "--sequence"),
        (["gate", "cz", "t3.json"], "--membrane"),
    ]:
        serialize.write("one.manifest.json", {"steps": [step]})
        capsys.readouterr()
        assert run_manifest("one.manifest.json") == (
            2, [f"step 0 failed (exit 2): {' '.join(step)}"]), step
        assert capsys.readouterr().err.endswith(
            f"error: the following arguments are required: {missing}\n"), step
    for step, why in [
        (["cup", "triple", "t3.json", "--cocycles", "0,1,3"],
         "--cocycles 0,1,3: indices must lie in 0..2 (b_1 = 3)"),
        (["cup", "triple", "t3.json", "--cocycles=-1,1,2"],
         "--cocycles -1,1,2: indices must lie in 0..2 (b_1 = 3)"),
        (["code", "distance", "c.json", "--method", "bfs", "--complex", "t3.json", "--sector", "x"],
         "ValueError: bfs finds d_x only when every qubit lies in at most two Z checks; "
         "qubit 0 lies in 6 of them"),
        (["code", "distance", "cc.json", "--method", "bfs", "--sector", "z", "--complex", "t3.json"],
         "ValueError: bfs finds d_z only when every qubit lies in at most two X checks; "
         "qubit 0 lies in 4 of them"),
    ]:
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed ({why}): {' '.join(step)}"]), step
    # the arguments they ask for make each step run
    for step in (["homology", "basis", "t3.json", "--dim", "1", "--out", "hb.json"],
                 ["cup", "triple", "t3.json", "--cocycles", "0,1,2", "--out", "tr.json"],
                 ["code", "distance", "c.json", "--method", "bfs", "--complex", "t3.json",
                  "--sector", "z", "--out", "dz.json"],
                 ["code", "distance", "c.json", "--method", "bfs", "--sector", "z",
                  "--out", "dz2.json"],
                 ["mcg", "twist", "--genus", "2", "--curve", "a:1", "--out", "tw.json"],
                 ["mcg", "torus-homology", "--matrix", "tw.json", "--coeff", "z2"],
                 ["mcg", "thurston", "--n", "n.json"],
                 ["mcg", "thickened", "--sequence", "b:2 b:1 f:1"],
                 ["gate", "cz", "t3.json", "--membrane", "memb.json", "--out", "cz.json"]):
        assert main(step) == 0
    assert serialize.read("tr.json")["integral"] == 1
    assert serialize.read("dz.json") == serialize.read("dz2.json") == {
        "dx": None, "dz": 1, "flag": "exact", "note": ""}
    assert len(serialize.read("cz.json")["gates"]) == 2


USAGE_ERRORS = [
    # each action's parser declares the arguments it reads.  The first five
    # used to escape run_manifest as an AttributeError or as a TypeError from
    # open(None); gate check with three files ran and never read the first;
    # every option below was accepted and ignored by the action given
    (["complex", "build"], "the following arguments are required: --preset"),
    (["complex", "validate"], "the following arguments are required: file"),
    (["complex", "subdivide"], "the following arguments are required: file"),
    (["gate", "ccz"], "the following arguments are required: file"),
    (["gate", "t"], "the following arguments are required: file"),
    (["gate", "check", "t3.json", "ccz.json", "c.json"], "unrecognized arguments: c.json"),
    (["complex", "validate", "t3.json", "--preset", "t3"], "unrecognized arguments: --preset t3"),
    (["homology", "betti", "t3.json", "--budget", "5"], "unrecognized arguments: --budget 5"),
    (["snf", "m.json", "--dim", "1"], "unrecognized arguments: --dim 1"),
    (["cup", "form", "t3.json", "--cocycles", "0,1,2"], "unrecognized arguments: --cocycles 0,1,2"),
    (["code", "build", "t3.json", "--sector", "z"], "unrecognized arguments: --sector z"),
    (["gate", "ccz", "t3.json", "--plus", "0"], "unrecognized arguments: --plus 0"),
    (["mcg", "torus-homology", "--matrix", "m.json", "--genus", "3"],
     "unrecognized arguments: --genus 3"),
    (["hypergraph", "degrees", "h.json", "--lift"], "unrecognized arguments: --lift"),
    (["sullivan", "synth", "mu.json", "--export", "dot"], "unrecognized arguments: --export dot"),
    (["report", "c.json", "--sector", "z"], "unrecognized arguments: --sector z"),
    (["run-manifest", "m.json", "--out", "x"], "unrecognized arguments: --out x"),
]


@pytest.mark.parametrize("step,why", USAGE_ERRORS)
def test_missing_and_foreign_arguments_are_usage_errors(workdir, capsys, step, why):
    serialize.write("one.manifest.json", {"steps": [step]})
    assert run_manifest("one.manifest.json") == (2, [f"step 0 failed (exit 2): {' '.join(step)}"])
    assert capsys.readouterr().err.endswith(f"error: {why}\n")
    with pytest.raises(SystemExit) as exc:
        main(step)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {why}\n")


def test_manifest_reports_curve_index_out_of_range(workdir):
    # mcg twist and mcg thickened parse curves alike
    for curve, top in (("a:9", 2), ("a:0", 2), ("f:2", 1), ("b:3", 2), ("f:0", 1)):
        why = f"ValueError: curve '{curve}': index must lie in 1..{top} (genus 2)"
        for step in (["mcg", "twist", "--genus", "2", "--curve", curve],
                     ["mcg", "thickened", "--genus", "2", "--sequence", f"b:1 {curve}"]):
            serialize.write("one.manifest.json", {"steps": [step]})
            assert run_manifest("one.manifest.json") == (
                1, [f"step 0 failed ({why}): {' '.join(step)}"]), step
    for curve in ("q:1", "zz"):  # zz used to read invalid literal for int()
        step = ["mcg", "thickened", "--sequence", curve]
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: unknown curve '{curve}'): {' '.join(step)}"])


def test_empty_thickened_sequence_is_the_identity(workdir, capsys):
    # the empty sequence used to raise IndexError, which aborted run-manifest
    step = ["mcg", "thickened", "--genus", "2", "--sequence", ""]
    serialize.write("one.manifest.json", {"steps": [step]})
    assert run_manifest("one.manifest.json") == (0, ["step 0 ok: mcg thickened --genus 2 --sequence "])
    assert capsys.readouterr().out == "identity on the membrane basis\n"
    assert main([*step, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "labels": ["a1xc", "a2xc", "b1xc", "b2xc", "Sigma"],
        "matrix_columns": [[0], [1], [2], [3], [4]], "cnots": []}
    step = ["mcg", "thickened", "--genus", "0", "--sequence", ""]
    serialize.write("one.manifest.json", {"steps": [step]})
    assert run_manifest("one.manifest.json") == (
        1, ["step 0 failed (ValueError: genus must be at least 1, not 0): "
            "mcg thickened --genus 0 --sequence "])


def test_simulate_checks_logical_qubits_against_k(workdir):
    # --plus 99 raised IndexError, --plus -1 simulated the last logical qubit
    # and --fixed bits at or above k were ignored
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    assert main(["code", "build", "t3.json", "--type", "toric:3", "--out", "c.json"]) == 0
    assert main(["gate", "ccz", "t3.json", "--out", "ccz.json"]) == 0
    for flags, why in [
        (["--plus", "99"], "--plus 99: logical qubits must lie in 0..8 (k = 9)"),
        (["--plus", "-1"], "--plus -1: logical qubits must lie in 0..8 (k = 9)"),
        (["--plus", "0,9"], "--plus 0,9: logical qubits must lie in 0..8 (k = 9)"),
        (["--plus", "0", "--fixed", "1000000000"],
         "--fixed 1000000000: needs a binary string of at most k = 9 digits"),
        (["--plus", "0", "--fixed", "-1"], "--fixed -1: needs a binary string of at most k = 9 digits"),
    ]:
        step = ["gate", "simulate", "ccz.json", "c.json"] + flags
        with pytest.raises(SystemExit, match=re.escape(why)):
            main(step)
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed ({why}): {' '.join(step)}"]), step
    assert main(["gate", "simulate", "ccz.json", "c.json", "--plus", "0,8", "--fixed", "0100000000"]) == 0


BAD_FILES = [
    # (kind, edit of a good file, error); wrong JSON shapes used to escape
    # run_manifest as TypeError or AttributeError
    ("code", lambda d: [1, 2], "a code file must hold a JSON object, not list"),
    ("code", lambda d: d.__setitem__("n", "9"), "code n '9' is not a nonnegative int"),
    ("code", lambda d: d.__setitem__("hx", 5), "'hx' must be a list, not int"),
    ("code", lambda d: d.__setitem__("logical_z", 5), "'logical_z' must be a list, not int"),
    ("code", lambda d: d.__setitem__("extra", [1]), "'extra' must be an object, not list"),
    ("code", lambda d: d.__setitem__("meta", [5]), "'meta' must be a list of per-qubit lists"),
    ("code", lambda d: d["extra"].__setitem__("labels", 5), "'labels' must be a list, not int"),
    ("code", lambda d: d["extra"].__setitem__("signs", 5), "'signs' must be a list, not int"),
    ("circuit", lambda d: [1, 2], "a circuit file must hold a JSON object, not list"),
    ("circuit", lambda d: d.__setitem__("gates", 5), "'gates' must be a list, not int"),
    ("circuit", lambda d: d["gates"].__setitem__(0, ["CCZ", 5]), "gate ['CCZ', 5] is not a [kind, [qubits]] pair"),
    ("circuit", lambda d: d["gates"].__setitem__(0, [["CCZ"], [0, 1, 2]]),
     "gate [['CCZ'], [0, 1, 2]] is not a [kind, [qubits]] pair"),
    ("circuit", lambda d: d["gates"][0][1].__setitem__(0, [0]), "bad qubit tuple ([0], 8, 16) for gate CCZ"),
    ("circuit", lambda d: d.__setitem__("n", "9"), "circuit n '9' is not a nonnegative int"),
]


@pytest.mark.parametrize("kind,edit,why", BAD_FILES)
def test_code_and_circuit_files_are_shape_checked(workdir, kind, edit, why):
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    assert main(["code", "build", "t3.json", "--type", "toric:3", "--out", "code.json"]) == 0
    assert main(["gate", "ccz", "t3.json", "--out", "circuit.json"]) == 0
    bad = _corrupt(serialize.read(f"{kind}.json"), edit)
    load = {"code": serialize.code_from_json, "circuit": serialize.circuit_from_json}[kind]
    with pytest.raises(ValueError, match=re.escape(why)):
        load(bad)
    serialize.write(f"{kind}.json", bad)
    for action in ("check", "action"):
        step = ["gate", action, "circuit.json", "code.json"]
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step


BAD_SIGNS = [
    # a truncated list made a 100-gate T layer for 144 qubits, a 0 became Tdg
    # and a string escaped run_manifest as TypeError
    (lambda s: s[:100], "'signs' has 100 entries for 144 qubits"),
    (lambda s: s[:5] + [0] + s[6:], "'signs' entry 5 is 0, not +1 or -1"),
    (lambda s: ["x"] + s[1:], "'signs' entry 0 is 'x', not +1 or -1"),
    (lambda s: s[:7] + [True] + s[8:], "'signs' entry 7 is True, not +1 or -1"),
    (lambda s: s[:9] + [1.0] + s[10:], "'signs' entry 9 is 1.0, not +1 or -1"),
    (lambda s: s + [1], "'signs' has 145 entries for 144 qubits"),
]


@pytest.mark.parametrize("edit,why", BAD_SIGNS)
def test_color_code_signs_are_checked(workdir, edit, why):
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    assert main(["code", "build", "t3.json", "--type", "color", "--out", "cc.json"]) == 0
    assert main(["gate", "t", "cc.json", "--out", "t.json"]) == 0
    data = serialize.read("cc.json")
    data["extra"]["signs"] = edit(data["extra"]["signs"])
    with pytest.raises(ValueError, match=re.escape(why)):
        serialize.code_from_json(data)
    serialize.write("cc.json", data)
    for step in (["gate", "t", "cc.json", "--out", "t2.json"], ["gate", "check", "t.json", "cc.json"]):
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step
    assert not os.path.exists("t2.json")


def _t3_cover_files() -> None:
    """The T^3 L = 3 cover's toric:3 code (n = 567, k = 9, d_z = 3) and its
    CCZ circuit, as c3.json and ccz.json."""
    from test_local_check import t3_cover

    from tricode import gates

    K = t3_cover(3)
    serialize.write("c3.json", serialize.code_to_json(codes.toric_code(K, 3)))
    serialize.write("ccz.json", serialize.circuit_to_json(gates.ccz_circuit(K)))


BAD_LABELS = [
    # a short list escaped run_manifest as IndexError, and a repeated label
    # made gate action print CCZ (5, 5, 5) six times and exit 0
    (lambda labs: labs[:2], 2),
    (lambda labs: [5] * len(labs), 9),
    (lambda labs: labs + [["h0", 4]], 10),
    (lambda labs: labs[:8] + [labs[0]], 9),
    (lambda labs: labs[:8] + [1.5], 9),
    (lambda labs: labs[:8] + [True], 9),
    (lambda labs: labs[:8] + [["h0", 4, 1]], 9),
    (lambda labs: labs[:8] + [[["h0"], 4]], 9),
]


@pytest.mark.parametrize("edit,given", BAD_LABELS)
def test_code_labels_are_checked(workdir, edit, given):
    _t3_cover_files()
    data = serialize.read("c3.json")
    data["extra"]["labels"] = edit(data["extra"]["labels"])
    why = (f"'labels' must be 9 distinct ints, strs or pairs of them, one per logical qubit "
           f"({given} given)")
    with pytest.raises(ValueError, match=re.escape(why)):
        serialize.code_from_json(data)
    serialize.write("bad.json", data)
    for step in (["gate", "action", "ccz.json", "bad.json"], ["gate", "check", "ccz.json", "bad.json"]):
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step


def test_distance_is_flagged_per_sector(workdir, capsys):
    # --sector x used to print [undefined (k = 0)] when its budget ran out,
    # and --sector both [UPPER BOUND] for an exact d_z
    from conftest import tetrahedron_boundary

    _t3_cover_files()
    serialize.write("k0.json", serialize.code_to_json(codes.toric_code(tetrahedron_boundary(), 1)))
    for args, out in [
        (["c3.json", "--sector", "x", "--budget", "10"], "d_x=None d_z=None [budget exceeded]"),
        (["c3.json", "--budget", "10"], "d_x=None d_z=3 [d_x budget exceeded, d_z exact]"),
        (["c3.json", "--sector", "z"], "d_x=None d_z=3 [exact]"),
        (["k0.json"], "d_x=None d_z=None [undefined (k = 0)]"),
        (["k0.json", "--sector", "x"], "d_x=None d_z=None [undefined (k = 0)]"),
    ]:
        assert main(["code", "distance", *args]) == 0
        assert capsys.readouterr().out == out + "\n", args
    main(["complex", "build", "--preset", "sigma:2", "--out", "s2.json"])
    main(["code", "build", "s2.json", "--out", "s2c.json"])
    assert main(["code", "distance", "s2c.json"]) == 0
    assert capsys.readouterr().out == "d_x=2 d_z=1 [exact]\n"
    for args, obj in [
        (["--sector", "z"], {"dx": None, "dz": 3, "flag": "exact", "note": ""}),
        (["--sector", "x", "--budget", "10"], {"dx": None, "dz": None, "flag": "budget exceeded",
                                               "note": "budget 10 exceeded; partial search only"}),
    ]:
        assert main(["code", "distance", "c3.json", *args, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == obj


def _form_inputs():
    """A matrix, a cup-product form, a hypergraph and a Sullivan 3-form file."""
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    assert main(["mcg", "twist", "--genus", "1", "--curve", "a:1", "--out", "m.json"]) == 0
    assert main(["cup", "form", "t3.json", "--out", "form.json"]) == 0
    assert main(["hypergraph", "build", "form.json", "--out", "h.json"]) == 0
    serialize.write("mu.json", {"m": 3, "coeffs": {"1,2,3": 1}})


BAD_LOADS = [
    # (file, step, edit, error); each used to escape run_manifest as a
    # TypeError, AttributeError or IndexError
    ("m.json", ["snf", "m.json"], lambda d: d.__setitem__("entries", 5),
     "'entries' must be a list, not int"),
    ("m.json", ["snf", "m.json"], lambda d: [1, 2], "a matrix file must hold a JSON object, not list"),
    ("m.json", ["snf", "m.json"], lambda d: d["entries"].__setitem__(0, 5),
     "matrix row 0 is not a list of ints: 5"),
    ("m.json", ["snf", "m.json"], lambda d: d["entries"][1].__setitem__(0, "1"),
     "matrix row 1 is not a list of ints: ['1', 1]"),
    ("m.json", ["snf", "m.json"], lambda d: d.__setitem__("rows", "2"),
     "matrix rows '2' is not a nonnegative int"),
    ("m.json", ["mcg", "torus-homology", "--matrix", "m.json"], lambda d: d.__setitem__("cols", None),
     "matrix cols None is not a nonnegative int"),
    ("h.json", ["hypergraph", "degrees", "h.json"], lambda d: d.__setitem__("vertices", 5),
     "'vertices' must be a list, not int"),
    ("h.json", ["hypergraph", "degrees", "h.json"], lambda d: d["hyperedges"].__setitem__(0, 5),
     "'hyperedges' entry 5 is not a list of vertices"),
    ("h.json", ["hypergraph", "degrees", "h.json"], lambda d: d.__setitem__("unknown", [7]),
     "hypergraph has UNKNOWN-ALGEBRAIC triples ('unknown'); no hypergraph result is defined"),
    ("h.json", ["hypergraph", "degrees", "h.json"], lambda d: d.__setitem__("kind", "x"),
     "hypergraph kind 'x' is not 'base' or 'full'"),
    ("h.json", ["report", "h.json"], lambda d: d.__setitem__("hyperedges", {}),
     "'hyperedges' must be a list, not dict"),
    ("mu.json", ["sullivan", "synth", "mu.json"], lambda d: d.__setitem__("coeffs", [1]),
     "'coeffs' must be an object, not list"),
    ("mu.json", ["sullivan", "roundtrip", "mu.json"], lambda d: d.__setitem__("coeffs", {"1,2": 1}),
     "form coefficient key '1,2' is not three comma-separated ints"),
    ("mu.json", ["sullivan", "synth", "mu.json"], lambda d: d.__setitem__("coeffs", {"1,2,3": "1"}),
     "form coefficient '1' is not an int"),
    ("mu.json", ["sullivan", "synth", "mu.json"], lambda d: [1], "a form file must hold a JSON object, not list"),
    ("mu.json", ["hypergraph", "build", "mu.json"], lambda d: d.__setitem__("m", "3"),
     "form m '3' is not a nonnegative int"),
    ("form.json", ["hypergraph", "build", "form.json"], lambda d: d.__setitem__("coeffs", [1]),
     "'coeffs' must be an object, not list"),
    ("form.json", ["hypergraph", "build", "form.json"], lambda d: d.__setitem__("labels", 5),
     "'labels' must be a list, not int"),
    ("form.json", ["hypergraph", "build", "form.json", "--lift"],
     lambda d: d.__setitem__("coeffs", {"0,1,9": 1}),
     "form coefficient key (0, 1, 9) needs three distinct indices in 0..2"),
    ("form.json", ["hypergraph", "build", "form.json"], lambda d: d.__setitem__("coeffs", {"0,a,1": 1}),
     "form coefficient key '0,a,1' is not three comma-separated ints"),
    ("form.json", ["hypergraph", "build", "form.json"], lambda d: [0],
     "a form file must hold a JSON object, not list"),
    # an object vertex used to escape as TypeError: unhashable type: 'dict'
    ("h.json", ["hypergraph", "degrees", "h.json"], lambda d: d["vertices"].__setitem__(0, {"a": 1}),
     "hypergraph vertex {'a': 1} is not a str or int, or a list of them"),
    ("h.json", ["hypergraph", "degrees", "h.json"],
     lambda d: d["hyperedges"][0].__setitem__(0, [["bxc"], 1]),
     "hypergraph vertex [['bxc'], 1] is not a str or int, or a list of them"),
    ("h.json", ["report", "h.json"], lambda d: d.__setitem__("kind", 5), "'kind' must be a string, not int"),
    # repeated labels used to build 9 vertices over 6 distinct ones, list
    # labels to escape to_dot as TypeError: unhashable type: 'list', and a
    # hyperedge off the vertex list or with a repeated vertex to print
    # max degree 1
    ("form.json", ["hypergraph", "build", "form.json", "--lift"],
     lambda d: d.__setitem__("labels", ["x", "x", "y"]),
     "form labels ['x', 'x', 'y'] are not distinct strs or ints"),
    ("form.json", ["hypergraph", "build", "form.json", "--export", "dot"],
     lambda d: d.__setitem__("labels", [[1], {"a": 1}, 3]),
     "form labels [[1], {'a': 1}, 3] are not distinct strs or ints"),
    ("h.json", ["hypergraph", "degrees", "h.json"],
     lambda d: {"kind": "base", "vertices": ["p", "q", "r"],
                "hyperedges": [["p", "q", "x"], ["y", "y", "y"]]},
     "hyperedge ['p', 'q', 'x'] is not three distinct listed vertices"),
    ("h.json", ["hypergraph", "degrees", "h.json"], lambda d: d["hyperedges"][0].__delitem__(2),
     "hyperedge ['bxc', 'axc'] is not three distinct listed vertices"),
]


@pytest.mark.parametrize("name,step,edit,why", BAD_LOADS)
def test_matrix_hypergraph_and_form_files_are_shape_checked(workdir, name, step, edit, why):
    _form_inputs()
    for good in (["snf", "m.json"], ["hypergraph", "degrees", "h.json"], ["sullivan", "synth", "mu.json"],
                 ["hypergraph", "build", "form.json", "--lift"], ["hypergraph", "build", "mu.json"]):
        assert main(good) == 0, good
    serialize.write(name, _corrupt(serialize.read(name), edit))
    serialize.write("one.manifest.json", {"steps": [step]})
    assert run_manifest("one.manifest.json") == (
        1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step


def test_hypergraph_file_with_unknown_triples_is_refused(workdir, capsys):
    # degrees used to read the "unknown" triples and then ignore them, and
    # printed max degree 0 for a file whose only hyperedge was unknown
    _form_inputs()
    data = serialize.read("h.json")
    serialize.write("u.json", {**data, "hyperedges": [], "unknown": data["hyperedges"]})
    why = "hypergraph has UNKNOWN-ALGEBRAIC triples ('unknown'); no hypergraph result is defined"
    for step in (["hypergraph", "degrees", "u.json"], ["report", "u.json"]):
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step
        assert console_main(step) == 1
        assert capsys.readouterr() == ("", f"error: {why}\n")


def _corrupt(data, edit):
    """A deep copy of data changed in place by edit, or what edit returns."""
    data = json.loads(json.dumps(data))
    return edit(data) or data


def _first(data, dim):
    return next(e for e in data["simplices"] if e["dim"] == dim)


BAD_COMPLEXES = [
    # a face index of 99 used to raise IndexError in betti, cup form and
    # code build; a face of -1 wrapped round and printed betti: 1 0 -1 0
    (lambda d: _first(d, 2)["faces"].__setitem__(0, 99), "2-simplex 0: face 0 index 99 out of range"),
    (lambda d: _first(d, 3)["faces"].__setitem__(0, -1), "3-simplex 0: face 0 index -1 out of range"),
    (lambda d: _first(d, 2)["faces"].pop(), "2-simplex 0: expected 3 faces, got 2"),
    (lambda d: _first(d, 0)["faces"].append(0), "0-simplex 0: expected 0 faces, got 1"),
    (lambda d: _first(d, 1).__setitem__("dim", 4),
     "simplex {'dim': 4, 'faces': [0, 0], 'label': 'a'}: needs a dim in 0..3 and a list of faces"),
    (lambda d: _first(d, 1).__setitem__("dim", -1),
     "simplex {'dim': -1, 'faces': [0, 0], 'label': 'a'}: needs a dim in 0..3 and a list of faces"),
    (lambda d: _first(d, 1).__setitem__("faces", 5),
     "simplex {'dim': 1, 'faces': 5, 'label': 'a'}: needs a dim in 0..3 and a list of faces"),
    (lambda d: d.__setitem__("dims", -1), "complex dims -1 is not a nonnegative int"),
    # a dims no simplex list can fill used to allocate dims + 1 lists first
    (lambda d: d.__setitem__("dims", len(d["simplices"]) + 1), "complex dims 27 exceeds its 26 simplices"),
    (lambda d: d["cycles"]["axb"].__setitem__("cells", [0]), "cycle 'axb': not closed, del z != 0"),
    (lambda d: d["cycles"]["a"].__setitem__("cells", [7]), "cycle 'a': cell index out of range"),
    (lambda d: d["cycles"]["a"].__setitem__("dim", 5), "cycle 'a': cell index out of range"),
    (lambda d: d["cycles"]["a"].__setitem__("cells", [0.5]), "cycle 'a': cell index out of range"),
    # wrong JSON shapes used to escape run_manifest as TypeError or AttributeError
    (lambda d: d.__setitem__("simplices", 5), "'simplices' must be a list, not int"),
    (lambda d: d["simplices"].__setitem__(0, 7), "simplex 7: needs a dim in 0..3 and a list of faces"),
    (lambda d: d["cycles"]["a"].__setitem__("cells", 5),
     "cycle 'a': needs an object with a dim and a list of cells"),
    (lambda d: d["cycles"].__setitem__("a", 5), "cycle 'a': needs an object with a dim and a list of cells"),
    (lambda d: d.__setitem__("cycles", [1, 2]), "'cycles' must be an object, not list"),
    (lambda d: [1, 2], "a complex file must hold a JSON object, not list"),
]


@pytest.mark.parametrize("edit,why", BAD_COMPLEXES)
def test_complex_files_are_range_checked(workdir, edit, why):
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    bad = _corrupt(serialize.read("t3.json"), edit)
    with pytest.raises(ValueError, match=re.escape(why)):
        serialize.complex_from_json(bad)
    serialize.write("bad.json", bad)
    for step in (["homology", "betti", "bad.json"], ["cup", "form", "bad.json"],
                 ["code", "build", "bad.json", "--type", "toric:3"]):
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step
    # validate reports it as data
    step = ["complex", "validate", "bad.json", "--out", "v.json"]
    serialize.write("one.manifest.json", {"steps": [step]})
    assert run_manifest("one.manifest.json") == (1, [f"step 0 failed (exit 1): {' '.join(step)}"])
    assert serialize.read("v.json") == {"valid": False, "violations": [why]}


def test_membrane_files_are_checked(workdir):
    # a null or string support used to escape run_manifest as a TypeError, an
    # index past the 2-simplices as an IndexError from cz_membrane_circuit
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    cells = sorted(serialize.complex_from_json(serialize.read("t3.json")).cycles["axb"][1])
    order = "'support' must be a strictly increasing list of 2-cell indices in 0..11"
    step = ["gate", "cz", "t3.json", "--membrane", "memb.json"]
    for memb, why in [
        ({"dim": 2, "support": None}, "'support' must be a list, not NoneType"),
        ({"dim": 2, "support": "ab"}, "'support' must be a list, not str"),
        ({"dim": 2, "support": cells + [999]}, order),
        ({"dim": 2, "support": [-1] + cells}, order),
        ({"dim": 2, "support": cells[::-1]}, order),
        ({"dim": 2, "support": cells + cells[-1:]}, order),
        ({"dim": 2, "support": [float(c) for c in cells]}, order),
        ({"dim": "2", "support": cells}, "cochain dim '2' is not an int"),
        ({"dim": True, "support": cells}, "cochain dim True is not an int"),
        ([2, cells], "a cochain file must hold a JSON object, not list"),
    ]:
        serialize.write("memb.json", memb)
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), memb
    serialize.write("memb.json", {"dim": 2, "support": cells})
    assert main(step + ["--out", "cz.json"]) == 0


def _del_del_mutants():
    """Complexes whose indices are all in range but with del del != 0, and
    the dimension of the simplex reported: T^3 with one face of a
    tetrahedron moved (del_2 del_3), and sd(T^3) with one edge of a triangle
    moved (del_1 del_2)."""
    t3 = complexes.build_torus3()
    sd = complexes.barycentric_subdivide(t3).complex
    for K, n in ((t3, 3), (sd, 2)):
        data = json.loads(serialize.dumps(serialize.complex_to_json(K)))  # as a file reads
        simplex = _first(data, n)
        simplex["faces"][0] = (simplex["faces"][0] + 1) % K.n_cells(n - 1)
        yield data, n


def _faces(data) -> list[list[tuple]]:
    """The face lists of a complex file, read without any check."""
    return [[tuple(e["faces"]) for e in data["simplices"] if e["dim"] == n]
            for n in range(data["dims"] + 1)]


def _refused(data) -> str:
    """The loader's message for a complex file it refuses."""
    with pytest.raises(ValueError) as err:
        serialize.complex_from_json(data)
    return str(err.value)


def test_del_del_nonzero_is_refused(workdir):
    # such complexes used to get bases: homology basis raised a RuntimeError
    # that escaped run_manifest, or toric_code wrote a code.  The loader
    # refuses them by the simplicial identities, which imply del del = 0
    for data, n in _del_del_mutants():
        assert del_del_nonzero(_faces(data), n)[0] == 0
        why = _refused(data)
        assert why.startswith(f"{n}-simplex 0: d_")
        serialize.write("bad.json", data)
        for step in (["homology", "basis", "bad.json", "--dim", "1"], ["cup", "form", "bad.json"],
                     ["code", "build", "bad.json", "--type", "toric:3", "--out", "c.json"]):
            serialize.write("one.manifest.json", {"steps": [step]})
            assert run_manifest("one.manifest.json") == (
                1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step
        assert not os.path.exists("c.json")


def _swap_faces(data, dim: int, k: int, i: int, j: int) -> None:
    """Swap faces i and j of the k-th simplex of dimension dim."""
    fs = [e for e in data["simplices"] if e["dim"] == dim][k]["faces"]
    fs[i], fs[j] = fs[j], fs[i]


def _open_a1(data) -> None:
    """Add to the named cycle a1 the first edge that is not a loop."""
    edges = [e["faces"] for e in data["simplices"] if e["dim"] == 1]
    cells = data["cycles"]["a1"]["cells"]
    cells.append(next(i for i, (u, v) in enumerate(edges) if u != v and i not in cells))
    cells.sort()


# Complex files that pass the index checks and used to give wrong results with
# no error: (preset, edit, start of the loader's message).
REPRODUCTIONS = [
    # cup form wrote unit_triples [] where it should be [[0, 1, 2]]
    ("t3", lambda d: _swap_faces(d, 3, 0, 0, 3), "3-simplex 0: d_"),
    # gate check printed PASS, gate action 7 logical gates where there are 6 CCZs
    ("t3", lambda d: _swap_faces(d, 3, 2, 0, 2), "3-simplex 2: d_"),
    # code build --type toric:1 wrote a code whose logical Z 0 had an X-syndrome
    ("product:2,2", _open_a1, "cycle 'a1': not closed, del z != 0"),
]


@pytest.mark.parametrize("preset,edit,start", REPRODUCTIONS)
def test_face_order_and_open_cycles_are_refused_on_load(workdir, preset, edit, start):
    assert main(["complex", "build", "--preset", preset, "--out", "k.json"]) == 0
    data = _corrupt(serialize.read("k.json"), edit)
    assert not any(del_del_nonzero(_faces(data), n) for n in range(2, 4))  # order-blind
    why = _refused(data)
    assert why.startswith(start)
    serialize.write("bad.json", data)
    for step in (["cup", "form", "bad.json", "--out", "out.json"],
                 ["gate", "ccz", "bad.json", "--out", "out.json"],
                 ["code", "build", "bad.json", "--type", "toric:1", "--out", "out.json"],
                 ["code", "build", "bad.json", "--type", "toric:3", "--out", "out.json"],
                 ["code", "build", "bad.json", "--type", "color", "--out", "out.json"]):
        serialize.write("one.manifest.json", {"steps": [step]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {why}): {' '.join(step)}"]), step
        assert not os.path.exists("out.json")
    assert main(["complex", "validate", "bad.json", "--out", "v.json"]) == 1
    assert serialize.read("v.json") == {"valid": False, "violations": [why]}


BAD_MANIFESTS = [
    # each used to escape the tricode command as a traceback, or, for a
    # steps object, to run its key as a command
    ([["complex", "build"]], "a manifest file must hold a JSON object, not list"),
    ({"steps": [5]}, "manifest step 5 is not a list of str or int tokens"),
    ({"steps": {"a": 1}}, "'steps' must be a list, not dict"),
    ({"steps": [["report", 1.5]]}, "manifest step ['report', 1.5] is not a list of str or int tokens"),
    ({"expect": ["x"]}, "manifest expect entry 'x' is not an object with a 'value'"),
    ({"expect": [{"file": "b.json", "path": "betti"}]},
     "manifest expect entry {'file': 'b.json', 'path': 'betti'} is not an object with a 'value'"),
    ({"expect": [{"file": "b.json", "path": "betti", "value": 1, "tol": "a"}]},
     "'tol' must be a number, not str"),
    ({"expect": [{"file": "b.json", "path": "betti", "value": 1, "tol": True}]},
     "'tol' must be a number, not bool"),
    ({"expect": [{"file": 3, "path": "betti", "value": 1}]}, "'file' must be a string, not int"),
    ({"expect": [{"file": "b.json", "path": ["betti"], "value": 1}]}, "'path' must be a string, not list"),
    ({"expect": [{"file": "b.json", "path": "betti", "value": 1, "provenance": 7}]},
     "'provenance' must be a string, not int"),
    # a misspelt key used to pass as an empty manifest
    ({"step": [["complex", "build", "--preset", "t3"]]},
     "a manifest holds only 'steps' and 'expect', not 'step'"),
]


@pytest.mark.parametrize("manifest,why", BAD_MANIFESTS)
def test_malformed_manifests_print_one_error_line(workdir, capsys, manifest, why):
    serialize.write("m.json", manifest)
    assert console_main(["run-manifest", "m.json"]) == 1
    assert capsys.readouterr() == ("", f"error: {why}\n")


def test_a_complex_file_is_not_a_manifest(workdir, capsys):
    # it used to pass as an empty manifest with a warning and exit 0
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    why = "a manifest holds only 'steps' and 'expect', not 'cycles', 'dims', 'simplices'"
    with pytest.raises(ValueError, match=why):
        run_manifest("t3.json")
    assert console_main(["run-manifest", "t3.json"]) == 1
    assert capsys.readouterr() == ("", f"error: {why}\n")


def test_manifest_int_tokens_and_mistyped_paths(workdir):
    # int tokens used to break the step line with a TypeError; a path through
    # a number and a tolerance against a list used to raise TypeError too
    assert main(["complex", "build", "--preset", "t3", "--out", "t3.json"]) == 0
    serialize.write("m.json", {
        "steps": [["homology", "betti", "t3.json", "--dim", 1, "--out", "b.json"]],
        "expect": [{"file": "b.json", "path": "betti.x", "value": 3},
                   {"file": "b.json", "path": "betti.#", "value": 3},
                   {"file": "b.json", "path": "dim", "value": 1.2, "tol": 0.5},
                   {"file": "b.json", "path": "dim", "value": [1], "tol": 0.5}]})
    assert run_manifest("m.json") == (1, [
        "step 0 ok: homology betti t3.json --dim 1 --out b.json",
        "FAIL b.json:betti.x: path not found",
        "FAIL b.json:betti.#: path not found",
        "PASS b.json:dim = 1 (expected 1.2) []",
        "FAIL b.json:dim = 1 (expected [1]) []"])


def test_report_checks_thurston_files(workdir, capsys):
    # a null nu used to escape run_manifest as a TypeError
    why = "a thurston file needs a number 'nu' and a number or null 'stretch'"
    for data, msg in [({"nu": None}, why), ({"nu": True}, why), ({"nu": "1"}, why),
                      ({"nu": 1.0, "stretch": "2"}, why), ({"nu": 1.0, "stretch": False}, why),
                      (["nu"], "a report file must hold a JSON object, not list")]:
        serialize.write("th.json", data)
        serialize.write("one.manifest.json", {"steps": [["report", "th.json"]]})
        assert run_manifest("one.manifest.json") == (
            1, [f"step 0 failed (ValueError: {msg}): report th.json"]), data
    serialize.write("th.json", {"nu": 0.5, "stretch": None})
    assert main(["report", "th.json"]) == 0
    assert capsys.readouterr().out == "nu~0.5000 stretch~nan pA=no\n"


def test_console_script_prints_an_error_line_not_a_traceback(workdir):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    assert main(["complex", "build", "--preset", "sigma-rot:2", "--out", "s.json"]) == 0
    proc = subprocess.run([sys.executable, "-m", "tricode.cli", "code", "build", "s.json",
                           "--type", "color"], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: color_code needs a 3-complex\n"
    # the same failure inside a manifest is still reported as its step
    step = ["code", "build", "s.json", "--type", "color"]
    serialize.write("one.manifest.json", {"steps": [step]})
    assert run_manifest("one.manifest.json") == (
        1, [f"step 0 failed (ValueError: color_code needs a 3-complex): {' '.join(step)}"])
    proc = subprocess.run([sys.executable, "-m", "tricode.cli", "homology", "betti", "s.json"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "betti: 1 4 1\n", "")


def test_torus_homology_coeff_is_checked(workdir):
    # --coeff q used to print b_1(Z2) and exit 0
    serialize.write("m.json", serialize.matrix_to_json([[int(i == j) for j in range(4)] for i in range(4)]))
    step = ["mcg", "torus-homology", "--matrix", "m.json", "--coeff", "q"]
    serialize.write("one.manifest.json", {"steps": [step]})
    assert run_manifest("one.manifest.json") == (
        1, [f"step 0 failed (ValueError: coeff must be Z or Z2): {' '.join(step)}"])
    for coeff, key in (("z", "free_rank"), ("Z", "free_rank"), ("z2", "b1_mod2"), ("Z2", "b1_mod2")):
        assert main(["mcg", "torus-homology", "--matrix", "m.json", "--coeff", coeff,
                     "--out", "h.json"]) == 0
        assert serialize.read("h.json")[key] == 5, coeff


HUGE_N = """
import resource, sys
cap = 1 << 30  # far below the 8 GB of one list of n = 10**9 entries
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from tricode.cli import run_manifest
print(run_manifest(sys.argv[1]))
"""


def test_code_n_is_bounded_by_the_file(workdir):
    # n = 10**9 used to run report out of memory in the n-sized transposes;
    # each step runs in a child process under an address-space cap
    main(["complex", "build", "--preset", "t3", "--out", "t3.json"])
    main(["code", "build", "t3.json", "--type", "toric:1", "--out", "c.json"])
    data = serialize.read("c.json")
    assert data["n"] == 7
    serialize.write("huge.json", {**data, "n": 10 ** 9, "meta": []})
    serialize.write("circ.json", {"n": 10 ** 9, "gates": [["Z", [0]]]})
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    why = "ValueError: code n 1000000000 exceeds the 7 qubits that its meta, rows and logicals name"
    for step in (["report", "huge.json"], ["gate", "check", "circ.json", "huge.json"]):
        serialize.write("one.manifest.json", {"steps": [step]})
        proc = subprocess.run([sys.executable, "-c", HUGE_N, "one.manifest.json"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        line = f"step 0 failed ({why}): {' '.join(step)}"
        assert proc.stdout == f"{(1, [line])}\n", proc.stderr
    # the file's own n still loads, with or without its meta
    for meta in (data["meta"], []):
        assert serialize.code_from_json({**data, "meta": meta}).n == 7
