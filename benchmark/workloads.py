"""The benchmark's workloads: their inputs, their stages and their checks.

Each workload is a list of rungs run in-process, stage by stage, plus a CLI
session driven step by step through ``tricode.cli.main`` as ``run-manifest``
drives it.  ``t3-ccz`` and ``sigma-circle`` run their rungs in-process and
repeat their smallest rung through the CLI; ``cli-color`` is a CLI session
only.  Every expected value below is a closed form or a property the method
must have, never a stored copy of earlier output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from tricode import cli, codes, complexes, gates, homology, hypergraph, serialize

from harness import Recorder, StageFailed


def _cells(out) -> dict:
    K = out[0] if isinstance(out, tuple) else getattr(out, "complex", out)
    return {"complexes.cells": sum(K.counts)} if isinstance(K, complexes.DeltaComplex) else {}


def _code_counts(code) -> dict:
    return {"codes.n": code.n, "codes.k": code.k, "codes.x_stabilizers": len(code.hx.rows)}


# Layers whose public functions the traced run wraps:
# (layer, module, functions, counter of the result).
LAYERS = [
    ("complexes.build", complexes,
     ["build_torus3", "build_sigma_g", "build_sigma_g_rotsym", "rotation_automorphism",
      "mapping_torus", "product_with_circle", "cyclic_cover", "sheet_projection",
      "barycentric_subdivide"], _cells),
    ("homology.betti", homology, ["betti_all"], None),
    ("hypergraph.form", hypergraph, ["form_from_cup"],
     lambda form: {"hypergraph.unit_triples": len(form.known_unit_triples())}),
    ("hypergraph.lift", hypergraph, ["base_hypergraph", "lift_full"], None),
    ("hypergraph.lift", hypergraph, ["magic_state_complexity"],
     lambda kappa: {"hypergraph.kappa": kappa}),
    ("codes.toric_code", codes, ["toric_code"], _code_counts),
    ("codes.color_code", codes, ["color_code"], _code_counts),
    ("codes.systole", codes, ["systole_bfs"], None),
    ("gates.circuit", gates, ["ccz_circuit", "transversal_t"],
     lambda circ: {"gates.physical_gates": len(circ.gates)}),
    ("gates.check", gates, ["check_logical_gate"], None),
    ("gates.action", gates, ["extract_logical_action"],
     lambda act: {"gates.logical_gates": len(act.gate_list())}),
    ("serialize.encode", serialize,
     ["complex_to_json", "code_to_json", "circuit_to_json", "hypergraph_to_json"], None),
    ("serialize.encode", serialize, ["dumps"], lambda s: {"serialize.bytes": len(s)}),
    ("serialize.decode", serialize,
     ["read", "complex_from_json", "code_from_json", "circuit_from_json", "hypergraph_from_json"],
     None),
]


# ---------------------------------------------------------------------------
# Rungs and their closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rung:
    """One complex of a ladder with the closed forms its pipeline must meet:
    V vertices and T tetrahedra, Betti numbers, unit triples and d_Z."""

    name: str
    vertices: int
    tets: int
    b1: int
    unit_triples: int
    dz: int


def rung(spec: dict) -> Rung:
    fam = spec["family"]
    if fam == "t3-cover":
        L = spec["L"]
        # every cell of the one-vertex T^3 (1, 7, 12, 6 cells) has L^3 lifts
        return Rung(f"T3 L={L}", L ** 3, 6 * L ** 3, 3, 1, L)
    if fam == "sd-t3":
        # one vertex per cell of T^3, 4! flags per tetrahedron
        return Rung("sd(T3)", 1 + 7 + 12 + 6, 24 * 6, 3, 1, 2)
    if fam == "sigma-circle":
        g, layers = spec["g"], spec["layers"]
        # one vertex per layer; 4g - 2 triangles of the fan, 3 tetrahedra per prism;
        # d_Z = 1 since the side edges a_i, b_i are nontrivial single-edge loops
        return Rung(f"Sigma_{g} x S1, layers={layers}", layers,
                    3 * (4 * g - 2) * layers, 2 * g + 1, g, 1)
    raise ValueError(f"unknown rung family {fam!r}")


def build(spec: dict) -> complexes.DeltaComplex:
    fam = spec["family"]
    if fam == "t3-cover":
        return t3_cover(spec["L"])
    if fam == "sd-t3":
        return complexes.barycentric_subdivide(complexes.build_torus3()).complex
    return complexes.product_with_circle(complexes.build_sigma_g(spec["g"]), spec["layers"])


def t3_cover(L: int) -> complexes.DeltaComplex:
    """The T^3 L-cover: ``cyclic_cover`` three times with m = L, using the
    direction cocycle of a, b and c in turn (1 on edges whose T^3 label holds
    that letter), pulled back to the current cover through ``sheet_projection``."""
    K = complexes.build_torus3()
    letters = [K.labels[(1, e)] for e in range(K.n_cells(1))]
    cur = K
    for direction in "abc":
        cochain = {e: 1 for e, lab in enumerate(letters) if direction in lab}
        cover, _ = complexes.cyclic_cover(cur, cochain, L)
        proj = complexes.sheet_projection(cur, cover, L)[1]
        letters = [letters[proj[e]] for e in range(cover.n_cells(1))]
        cur = cover
    return cur


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

T3_COVER_L2_GATES = 6 * 2 ** 3  # one CCZ per tetrahedron of the L = 2 cover
T3_COLOR_FLAGS = 24 * 6  # one qubit per flag of the one-vertex T^3
TWIST = {"base_preset": "sigma-rot:2", "layers": 1, "kind": "rotation", "handles": 1}


def make_plan(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    plan = {"workload": workload, "seed": seed}
    if workload == "t3-ccz":
        plan["rungs"] = [{"family": "t3-cover", "L": 2}, {"family": "t3-cover", "L": 3},
                         {"family": "sd-t3"}]
        plan["drop_gate"] = rng.randrange(T3_COVER_L2_GATES)
    elif workload == "sigma-circle":
        plan["rungs"] = [{"family": "sigma-circle", "g": g, "layers": layers}
                         for g in (2, 4) for layers in (1, 2)]
    elif workload == "cli-color":
        plan["rungs"] = []
        plan["flip_t"] = rng.randrange(T3_COLOR_FLAGS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["session"] = leg_session(rung(plan["rungs"][0])) if plan["rungs"] else color_session()
    return plan


def write_inputs(workload: str, seed: int, outdir: str) -> None:
    """The workload's input files: the plan, the CLI session's expectation
    manifest and the mapping-torus twist spec."""
    os.makedirs(outdir, exist_ok=True)
    plan = make_plan(workload, seed)
    for name, obj in (("plan.json", plan), ("twist.json", TWIST),
                      ("expect.json", {"expect": plan["session"]["expect"]})):
        with open(os.path.join(outdir, name), "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)


def _exp(file, path, value, why):
    return {"file": file, "path": path, "value": value, "provenance": why}


def leg_session(r: Rung) -> dict:
    """The bundled T^3 pipeline, run through the CLI on a rung's complex file."""
    steps = [
        ["complex", "validate", "rung.json", "--out", "valid.json"],
        ["homology", "betti", "rung.json", "--out", "betti.json"],
        ["cup", "form", "rung.json", "--out", "form.json"],
        ["hypergraph", "build", "form.json", "--lift", "--out", "hyper.json"],
        ["code", "build", "rung.json", "--type", "toric:3", "--out", "code3.json"],
        ["gate", "ccz", "rung.json", "--out", "ccz.json"],
        ["gate", "check", "ccz.json", "code3.json", "--out", "check.json"],
        ["gate", "action", "ccz.json", "code3.json", "--out", "action.json"],
    ]
    b1 = r.b1
    expect = [
        _exp("valid.json", "valid", True, "closed 3-manifold triangulation"),
        _exp("valid.json", "counts",
             [r.vertices, r.vertices + r.tets, 2 * r.tets, r.tets],
             "chi = 0 and every triangle bounds two tetrahedra"),
        _exp("betti.json", "betti", [1, b1, b1, 1], "closed form of the family"),
        _exp("form.json", "unit_triples.#", r.unit_triples, "triple points of the family"),
        _exp("hyper.json", "hyperedges.#", 6 * r.unit_triples, "kappa = 6 x triple points"),
        _exp("code3.json", "n", 3 * (r.vertices + r.tets), "3 copies x E"),
        _exp("ccz.json", "gates.#", r.tets, "one CCZ per tetrahedron"),
        _exp("check.json", "status", "PASS", "cup-product circuit preserves the code space"),
        _exp("action.json", "k", 3 * b1, "3 copies x b_1"),
        _exp("action.json", "gates.#", 6 * r.unit_triples, "one logical CCZ per copy permutation"),
    ]
    return {"steps": steps, "expect": expect}


def color_session() -> dict:
    """The bundled T^3 pipeline, then transversal T on the color codes of T^3
    and of the rotation-twisted mapping torus of sigma-rot:2."""
    steps = [
        ["complex", "build", "--preset", "t3", "--out", "t3.json"],
        ["complex", "validate", "t3.json", "--out", "t3.valid.json"],
        ["homology", "betti", "t3.json", "--out", "t3.betti.json"],
        ["cup", "form", "t3.json", "--out", "t3.form.json"],
        ["code", "build", "t3.json", "--type", "toric:3", "--out", "t3.code3.json"],
        ["gate", "ccz", "t3.json", "--out", "t3.ccz.json"],
        ["gate", "check", "t3.ccz.json", "t3.code3.json", "--out", "t3.check.json"],
        ["gate", "action", "t3.ccz.json", "t3.code3.json", "--out", "t3.action.json"],
        ["hypergraph", "build", "t3.form.json", "--lift", "--out", "t3.hyper.json"],
        ["code", "distance", "t3.code3.json", "--method", "bfs", "--sector", "z",
         "--complex", "t3.json", "--out", "t3.dz.json"],
        ["complex", "build", "--preset", "mapping-torus", "--twist", "../twist.json",
         "--out", "rot.json"],
        ["complex", "validate", "rot.json", "--out", "rot.valid.json"],
        ["homology", "betti", "rot.json", "--out", "rot.betti.json"],
        ["cup", "form", "rot.json", "--out", "rot.form.json"],
        ["hypergraph", "build", "rot.form.json", "--lift", "--out", "rot.hyper.json"],
    ]
    for cx in ("t3", "rot"):
        steps += [
            ["code", "build", f"{cx}.json", "--type", "color", "--out", f"{cx}.cc.json"],
            ["gate", "t", f"{cx}.cc.json", "--out", f"{cx}.t.json"],
            ["gate", "check", f"{cx}.t.json", f"{cx}.cc.json", "--out", f"{cx}.tcheck.json"],
            ["gate", "action", f"{cx}.t.json", f"{cx}.cc.json", "--out", f"{cx}.taction.json"],
        ]
    expect = [
        _exp("t3.valid.json", "valid", True, "one-vertex cube triangulation"),
        _exp("t3.valid.json", "counts", [1, 7, 12, 6], "cells of the identified cube"),
        _exp("t3.betti.json", "betti", [1, 3, 3, 1], "H_1(T^3; Z_2) = Z_2^3"),
        _exp("t3.form.json", "unit_triples", [[0, 1, 2]], "the coordinate 2-tori meet once"),
        _exp("t3.code3.json", "n", 21, "3 copies x 7 edges"),
        _exp("t3.ccz.json", "gates.#", 6, "one CCZ per tetrahedron"),
        _exp("t3.check.json", "status", "PASS", "cup-product circuit preserves the code space"),
        _exp("t3.action.json", "k", 9, "3 copies x b_1"),
        _exp("t3.action.json", "gates.#", 6, "one logical CCZ per copy permutation"),
        _exp("t3.hyper.json", "hyperedges.#", 6, "kappa = 6 x triple points"),
        _exp("t3.hyper.json", "vertices.#", 9, "3 classes x 3 copies"),
        _exp("t3.dz.json", "dz", 1, "one vertex: each edge is a nontrivial loop"),
        _exp("rot.valid.json", "valid", True, "mapping torus of a simplicial rotation"),
        _exp("rot.betti.json", "betti", [1, 3, 3, 1],
             "b_1 = 1 + dim of the rotation-invariant H_1(Sigma_2), spanned by a1+a2, b1+b2"),
        _exp("t3.cc.json", "n", T3_COLOR_FLAGS, "one qubit per flag"),
        _exp("t3.t.json", "gates.#", T3_COLOR_FLAGS, "one T or Tdg per flag"),
    ]
    for cx in ("t3", "rot"):
        expect += [
            _exp(f"{cx}.cc.json", "logical_x.#", 9, "k = 3 b_1"),
            _exp(f"{cx}.tcheck.json", "status", "PASS", "transversal T is logical on color codes"),
            _exp(f"{cx}.taction.json", "k", 9, "k = 3 b_1"),
        ]
    return {"steps": steps, "expect": expect}


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


def form_json(form) -> dict:
    """The triple form as ``tricode cup form`` writes it."""
    return {
        "labels": form.labels,
        "coeffs": {",".join(map(str, sorted(t))): v for t, v in form.coefficients.items()},
        "unit_triples": [list(t) for t in form.known_unit_triples()],
    }


def _lift(form):
    full = hypergraph.lift_full(hypergraph.base_hypergraph(form))
    return full, hypergraph.magic_state_complexity(full)


def _encode(code, circ, form) -> list[str]:
    return [serialize.dumps(serialize.code_to_json(code)),
            serialize.dumps(serialize.circuit_to_json(circ)),
            serialize.dumps(form_json(form))]


def _decode(blobs: list[str]):
    code_s, circ_s, form_s = (json.loads(b) for b in blobs)
    return serialize.code_from_json(code_s), serialize.circuit_from_json(circ_s), form_s


def _write_complex(path: str, K) -> None:
    serialize.write(path, serialize.complex_to_json(K))


def run_rung(rec: Recorder, spec: dict) -> dict:
    """build -> Betti -> triple form -> lift and kappa -> code -> circuit ->
    check -> action -> d_Z -> encode (and decode when traced)."""
    out: dict = {}
    out["K"] = K = rec.op("build", None, build, spec)
    out["betti"] = rec.op("betti", "invariants", homology.betti_all, K)
    out["form"] = form = rec.op("form", "invariants", hypergraph.form_from_cup, K)
    out["full"], out["kappa"] = rec.op("lift", "invariants", _lift, form)
    out["code"] = code = rec.op("code", "verify", codes.toric_code, K, 3)
    out["circ"] = circ = rec.op("circuit", "verify", gates.ccz_circuit, K)
    out["check"] = chk = rec.op("check", "verify", gates.check_logical_gate, circ, code,
                                ok=lambda chk: chk.passed)
    out["action"] = rec.op("action", "verify", gates.extract_logical_action, circ, code, chk)
    out["dz"], _ = rec.op("systole", None, codes.systole_bfs, K)
    out["blobs"] = rec.op("encode", None, _encode, code, circ, form)
    if rec.traced:
        out["decoded"] = rec.op("decode", None, _decode, out["blobs"], layer="serialize.decode")
    return out


def step_layer(argv: list[str]) -> tuple[str, str | None]:
    """The layer and end-to-end bucket of one CLI step."""
    cmd, action = argv[0], argv[1]
    if cmd == "gate":
        layer = {"check": "cli.gate_check", "action": "cli.gate_action"}.get(action,
                                                                            "cli.gate_circuit")
        return layer, "verify"
    if cmd == "code":
        return "cli.code", "verify" if action == "build" else None
    return f"cli.{cmd}", "invariants" if cmd in ("homology", "cup", "hypergraph") else None


def run_session(rec: Recorder, workdir: str, session: dict) -> None:
    """Drive the session's steps one by one through the CLI's in-process entry
    point, as ``run-manifest`` does, then check its expectation table through
    the manifest runner.  The session stops at the first failing step."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in session["steps"]:
            layer, bucket = step_layer(argv)
            rec.op(f"tricode {' '.join(argv)}", bucket, cli.main, argv, layer=layer,
                   ok=lambda rc: rc == 0)
        rc, lines = rec.op("expect", None, cli.run_manifest, "../expect.json", layer="cli.expect")
        rec.check(rc == 0, "expectation table: " + "; ".join(l for l in lines if l.startswith("FAIL")))
    finally:
        os.chdir(cwd)


def run_rep(rec: Recorder, plan: dict, session_dir: str) -> dict:
    """One pass over the workload's rungs, then its CLI session in
    ``session_dir``.  Returns the outputs the checks read."""
    outs = {"rungs": [], "session": session_dir}
    for spec in plan["rungs"]:
        try:
            outs["rungs"].append(run_rung(rec, spec))
        except StageFailed:
            outs["rungs"].append(None)
    try:
        if plan["rungs"]:
            first = outs["rungs"][0]
            if first is None:
                return outs
            rec.op("write rung", None, _write_complex, os.path.join(session_dir, "rung.json"),
                   first["K"])
        run_session(rec, session_dir, plan["session"])
        outs["session_ok"] = True
    except StageFailed:
        pass
    return outs


# ---------------------------------------------------------------------------
# Checks (outside the timed regions)
# ---------------------------------------------------------------------------


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _gate_set(gate_list) -> set:
    return {frozenset(tuple(q) if isinstance(q, list) else q for q in qs) for _, qs in gate_list}


def check_rung(rec: Recorder, r: Rung, out: dict) -> None:
    K, code, circ, act = out["K"], out["code"], out["circ"], out["action"]
    V, E, F, T = K.counts
    c = rec.check
    c(tuple(out["betti"]) == (1, r.b1, r.b1, 1), f"{r.name}: betti {out['betti']}")
    c(K.euler_characteristic() == 0 and F == 2 * T and E == V + T,
      f"{r.name}: counts {K.counts} are not those of a closed 3-manifold")
    c((V, T) == (r.vertices, r.tets), f"{r.name}: {V} vertices, {T} tetrahedra")
    c((code.n, code.k, len(code.hx.rows)) == (3 * E, 3 * r.b1, 3 * V),
      f"{r.name}: n={code.n} k={code.k} x-stabilizers={len(code.hx.rows)}")
    c(len(circ.gates) == T and all(k == "CCZ" for k, _ in circ.gates),
      f"{r.name}: {len(circ.gates)} physical gates")
    units = out["form"].known_unit_triples()
    c(len(units) == r.unit_triples, f"{r.name}: unit triples {units}")
    logical = act.gate_list()
    c(all(k == "CCZ" for k, _ in logical), f"{r.name}: logical action {logical}")
    c(_gate_set(logical) == {frozenset(e) for e in out["full"].hyperedges},
      f"{r.name}: logical CCZs differ from the lifted hypergraph")
    c(out["kappa"] == 6 * r.unit_triples == len(logical),
      f"{r.name}: kappa {out['kappa']}, {len(logical)} logical CCZs")
    c(out["dz"] == r.dz, f"{r.name}: d_Z {out['dz']}")
    if "decoded" in out:
        dcode, dcirc, dform = out["decoded"]
        c((dcode.n, dcode.k, dcirc.gates) == (code.n, code.k, circ.gates)
          and dform["unit_triples"] == [list(t) for t in units],
          f"{r.name}: artifacts do not decode to what was encoded")


def check_rep(rec: Recorder, plan: dict, outs: dict) -> None:
    for spec, out in zip(plan["rungs"], outs["rungs"]):
        if out is not None:
            check_rung(rec, rung(spec), out)
    if not outs.get("session_ok"):
        return
    d = outs["session"]
    if plan["rungs"]:
        # the CLI route agrees with the in-process route on the same complex
        first = outs["rungs"][0]
        action = _load(os.path.join(d, "action.json"))
        rec.check(_gate_set(action["gates"]) == _gate_set(first["action"].gate_list()),
                  "CLI and in-process logical actions differ")
        return
    for cx in ("t3", "rot"):
        counts = _load(os.path.join(d, f"{cx}.valid.json"))["counts"]
        b1 = _load(os.path.join(d, f"{cx}.betti.json"))["betti"][1]
        units = _load(os.path.join(d, f"{cx}.form.json"))["unit_triples"]
        hyper = _load(os.path.join(d, f"{cx}.hyper.json"))
        cc = _load(os.path.join(d, f"{cx}.cc.json"))
        action = _load(os.path.join(d, f"{cx}.taction.json"))
        rec.check(cc["n"] == 24 * counts[3], f"{cx}: color code n={cc['n']}, {counts[3]} tetrahedra")
        rec.check(len(cc["logical_x"]) == action["k"] == 3 * b1, f"{cx}: color code k vs b_1 = {b1}")
        rec.check(len(hyper["hyperedges"]) == 6 * len(units), f"{cx}: kappa vs unit triples")
        rec.check(all(k == "CCZ" for k, _ in action["gates"]), f"{cx}: T-layer action {action['gates']}")
        rec.check(bool(action["gates"]) == bool(units),
                  f"{cx}: action non-empty must mean a non-zero triple form")


def final_checks(rec: Recorder, plan: dict, outs: dict) -> None:
    """Seeded negative controls and the simulator cross-check, once per run;
    ``outs`` is the last pass's output."""
    try:
        if plan["workload"] == "t3-ccz":
            _t3_controls(rec, plan["drop_gate"])
        elif plan["workload"] == "cli-color" and outs.get("session_ok"):
            _color_control(rec, plan["flip_t"], outs["session"])
    except StageFailed:
        pass


def _t3_controls(rec: Recorder, drop: int) -> None:
    K = t3_cover(2)
    code, circ = codes.toric_code(K, 3), gates.ccz_circuit(K)
    dropped = gates.DiagonalCircuit(circ.n, circ.gates[:drop] + circ.gates[drop + 1:])
    chk = rec.op("negative control", None, gates.check_logical_gate, dropped, code)
    rec.check(chk.status == "FAIL", f"L=2 cover without CCZ {drop}: {chk.status}")
    T3 = complexes.build_torus3()
    code, circ = codes.toric_code(T3, 3), gates.ccz_circuit(T3)
    act = rec.op("oracle", None, gates.extract_logical_action, circ, code)
    plus = list(range(code.k))
    sim = gates.coset_simulate(circ, code, plus)
    rec.check(sim.equal_up_to_global_phase(gates.logical_state_lift(act, code, plus)),
              "T^3: coset simulator disagrees with the extracted action")


def _color_control(rec: Recorder, flip: int, session_dir: str) -> None:
    circ = _load(os.path.join(session_dir, "t3.t.json"))
    kind, qs = circ["gates"][flip]
    circ["gates"][flip] = ["Tdg" if kind == "T" else "T", qs]
    with open(os.path.join(session_dir, "t3.tflip.json"), "w") as fh:
        json.dump(circ, fh)
    cwd = os.getcwd()
    os.chdir(session_dir)
    try:
        rc = rec.op("negative control", None, cli.main,
                    ["gate", "check", "t3.tflip.json", "t3.cc.json", "--out", "tflip.check.json"])
        status = _load("tflip.check.json")["status"]
    finally:
        os.chdir(cwd)
    rec.check(rc != 0 and status != "PASS", f"T^3 color code with flag {flip} flipped: {status}")


def artifact_bytes(outs: dict) -> int:
    """Bytes of the JSON artifacts of one repetition: the in-process
    encodings and every file the CLI session wrote."""
    total = sum(len(b) for out in outs["rungs"] if out for b in out["blobs"])
    d = outs["session"]
    return total + sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))


def src_lines(src: str) -> int:
    pkg = os.path.join(src, "tricode")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total
