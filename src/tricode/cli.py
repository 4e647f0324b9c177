"""Command-line front end: builders, homology, cup integrals, codes, gates,
mapping-class-group tools, hypergraphs, back-engineering, and a manifest
runner for reproducible pipelines.

Each action is an argparse leaf that declares exactly the files and options
it reads, so a missing, unknown or foreign argument is a usage error that
exits 2.  All JSON outputs are sorted-key and newline-terminated, so identical
manifests produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import codes, complexes, cup, gates, homology, hypergraph, mcg, serialize, snf, sullivan
from .gf2 import support


def _emit(args, obj, text: str | None = None) -> None:
    if args.out:
        serialize.write(args.out, obj)
        return
    if args.format == "json" or text is None:
        sys.stdout.write(serialize.dumps(obj))
    else:
        print(text)


def _load_complex(path: str) -> complexes.DeltaComplex:
    return serialize.complex_from_json(serialize.read(path))


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------


def _build_preset(preset: str, twist_file: str | None):
    if preset == "t3":
        return complexes.build_torus3()
    if preset == "point":
        return complexes.build_point()
    if preset.startswith("circle:"):
        return complexes.product_with_circle(complexes.build_point(), int(preset.split(":")[1]))
    if preset.startswith("sigma-rot:"):
        return complexes.build_sigma_g_rotsym(int(preset.split(":")[1]))
    if preset.startswith("sigma:"):
        return complexes.build_sigma_g(int(preset.split(":")[1]))
    if preset.startswith("product:"):
        g, layers = (int(t) for t in preset.split(":")[1].split(","))
        return complexes.product_with_circle(complexes.build_sigma_g(g), layers)
    if preset == "mapping-torus":
        if not twist_file:
            raise SystemExit("--twist FILE is required for the mapping-torus preset")
        spec = serialize.read(twist_file)
        serialize._check_object(spec, "twist spec")
        field = functools.partial(serialize._field, spec)
        layers = field("layers", int, 1)
        if "base_file" in spec:
            base = _load_complex(field("base_file", str))
        else:
            base = _build_preset(field("base_preset", str), None)
        kind = field("kind", str, "identity")
        if kind == "identity":
            phi = complexes.SimplicialAutomorphism.identity(base)
        elif kind == "rotation":
            name, _, g = field("base_preset", str).partition(":")
            if name != "sigma-rot":
                raise ValueError("a rotation twist needs a sigma-rot:g base_preset")
            phi = complexes.rotation_automorphism(base, int(g), field("handles", int, 1))
        elif kind == "perm":
            perm = field("perm", list)
            if any(type(p) is not list or any(type(s) is not int for s in p) for p in perm):
                raise ValueError("'perm' must be a list of per-dimension lists of ints")
            phi = complexes.SimplicialAutomorphism(perm)
        else:
            raise SystemExit(f"unknown twist kind {kind!r}")
        return complexes.mapping_torus(base, phi, layers)
    raise SystemExit(f"unknown preset {preset!r}")


def cmd_complex(args) -> int:
    if args.action == "build":
        K = _build_preset(args.preset, args.twist)
        _emit(args, serialize.complex_to_json(K),
              f"built {args.preset}: counts {K.counts}")
        return 0
    if args.action == "validate":
        try:
            K = _load_complex(args.file)  # a complex that loads is valid
        except ValueError as exc:
            _emit(args, {"valid": False, "violations": [str(exc)]}, str(exc))
            return 1
        _emit(args, {"valid": True, "violations": [], "counts": K.counts,
                     "closed": complexes.is_closed(K)}, "well-formed")
        return 0
    sub = complexes.barycentric_subdivide(_load_complex(args.file))  # subdivide
    _emit(args, serialize.complex_to_json(sub.complex), f"subdivision counts {sub.complex.counts}")
    return 0


# ---------------------------------------------------------------------------
# homology / snf / cup
# ---------------------------------------------------------------------------


def cmd_homology(args) -> int:
    K = _load_complex(args.file)
    if args.action == "betti":
        if args.dim is not None:
            b = homology.betti(K, args.dim)
            _emit(args, {"dim": args.dim, "betti": b}, f"b_{args.dim} = {b}")
        else:
            bs = homology.betti_all(K)
            _emit(args, {"betti": bs}, "betti: " + " ".join(map(str, bs)))
        return 0
    cycles, cocycles = homology.canonical_basis(K, args.dim)  # basis
    obj = {
        "dim": args.dim,
        "cycles": [support(z) for z in cycles],
        "cocycles": [support(c) for c in cocycles],
        "pairing": "identity",
    }
    _emit(args, obj, f"rank {len(cycles)} basis with identity pairing")
    return 0


def cmd_snf(args) -> int:
    M = serialize.matrix_from_json(serialize.read(args.file))
    res = snf.smith_normal_form(M)
    obj = {"diagonal": res.diagonal, "P": res.P, "Q": res.Q}
    _emit(args, obj, "diagonal: " + " ".join(map(str, res.diagonal)))
    return 0


def cmd_cup(args) -> int:
    K = _load_complex(args.file)
    if args.action == "triple":
        basis = [cup.Cochain(1, c) for c in homology.canonical_basis(K, 1)[1]]
        i, j, k = (int(t) for t in args.cocycles.split(","))
        if not all(0 <= t < len(basis) for t in (i, j, k)):
            raise SystemExit(f"--cocycles {args.cocycles}: indices must lie in 0..{len(basis) - 1} "
                             f"(b_1 = {len(basis)})")
        v = cup.triple_cup_integral(K, basis[i], basis[j], basis[k])
        _emit(args, {"cocycles": [i, j, k], "integral": v}, f"integral = {v}")
        return 0
    if K.dims == 2:  # form
        M = cup.surface_intersection_form(K)
        _emit(args, {"intersection_form": M}, "\n".join(" ".join(map(str, row)) for row in M))
        return 0
    form = hypergraph.form_from_cup(K)
    obj = {
        "labels": form.labels,
        "coeffs": {",".join(map(str, sorted(t))): v for t, v in form.coefficients.items()},
        "unit_triples": form.known_unit_triples(),
    }
    _emit(args, obj, f"labels {form.labels}; unit triples {form.known_unit_triples()}")
    return 0


# ---------------------------------------------------------------------------
# code / gate
# ---------------------------------------------------------------------------


def cmd_code(args) -> int:
    if args.action == "build":
        K = _load_complex(args.file)
        if args.type.startswith("toric"):
            copies = int(args.type.split(":")[1]) if ":" in args.type else 1
            code = codes.toric_code(K, copies)
        elif args.type == "color":
            code = codes.color_code(K)
        else:
            raise SystemExit(f"unknown code type {args.type!r}")
        _emit(args, serialize.code_to_json(code), f"n={code.n} k={code.k}")
        return 0
    code = serialize.code_from_json(serialize.read(args.file))  # distance
    res = codes.distance(code, None if args.method == "bfs" else args.budget, args.sector)
    obj = {"dx": res.dx, "dz": res.dz, "flag": res.flagged(), "note": res.note}
    _emit(args, obj, f"d_x={res.dx} d_z={res.dz} [{res.flagged()}]")
    return 0


def cmd_gate(args) -> int:
    if args.action == "ccz":
        K = _load_complex(args.file)
        circ = gates.ccz_circuit(K)
        _emit(args, serialize.circuit_to_json(circ),
              f"{len(circ.gates)} CCZ gates on {circ.n} qubits")
        return 0
    if args.action == "cz":
        K = _load_complex(args.file)
        dim, z = serialize.cochain_from_json(serialize.read(args.membrane), K)
        if dim != 2:
            raise SystemExit("membrane file must hold a 2-cycle")
        i, j = (int(t) for t in args.copies.split(","))
        circ = gates.cz_membrane_circuit(K, z, (i, j))
        _emit(args, serialize.circuit_to_json(circ),
              f"{len(circ.gates)} CZ gates on {circ.n} qubits")
        return 0
    if args.action == "t":
        code = serialize.code_from_json(serialize.read(args.file))
        circ = gates.transversal_t(code)
        plus = sum(1 for k, _ in circ.gates if k == "T")
        _emit(args, serialize.circuit_to_json(circ),
              f"{len(circ.gates)} gates ({plus} T, {len(circ.gates) - plus} Tdg)")
        return 0
    circ = serialize.circuit_from_json(serialize.read(args.circuit))
    code = serialize.code_from_json(serialize.read(args.code))
    if args.action == "check":
        chk = gates.check_logical_gate(circ, code)
        obj = {"status": chk.status, "mode": chk.mode, "detail": chk.detail}
        _emit(args, obj, f"{chk.status} ({chk.mode}) {chk.detail}".rstrip())
        return 0 if chk.passed else 1
    if args.action == "action":
        gl = gates.extract_logical_action(circ, code).gate_list()
        _emit(args, {"k": code.k, "gates": gl}, "\n".join(f"{k} {qs}" for k, qs in gl) or "identity")
        return 0
    # simulate
    plus = list(range(code.k)) if args.plus == "all" else [int(t) for t in args.plus.split(",") if t]
    fixed = int(args.fixed, 2) if args.fixed else 0
    if any(not 0 <= j < code.k for j in plus):
        raise SystemExit(f"--plus {args.plus}: logical qubits must lie in 0..{code.k - 1} (k = {code.k})")
    if fixed >> code.k:  # also catches a sign
        raise SystemExit(f"--fixed {args.fixed}: needs a binary string of at most k = {code.k} digits")
    state = gates.coset_simulate(circ, code, plus, fixed).normalized()
    obj = {"phases": {str(v): p for v, p in sorted(state.phases.items())}}
    _emit(args, obj, f"{len(state.phases)} basis strings")
    return 0


# ---------------------------------------------------------------------------
# mcg / hypergraph / sullivan
# ---------------------------------------------------------------------------


def cmd_mcg(args) -> int:
    if args.action == "twist":
        g = args.genus
        if ":" in args.curve:
            vec = mcg.curve_class(args.curve, g)
        else:
            vec = [int(t) for t in args.curve.split(",")]
        M = mcg.dehn_twist_matrix(vec, g)
        _emit(args, serialize.matrix_to_json(M), "\n".join(" ".join(map(str, r)) for r in M))
        return 0
    if args.action == "torus-homology":
        h = mcg.mapping_torus_homology(serialize.matrix_from_json(serialize.read(args.matrix)),
                                       args.coeff)
        if isinstance(h, int):  # Z2: the first Betti number
            _emit(args, {"b1_mod2": h}, f"b_1(Z2) = {h}")
        else:
            _emit(args, {"free_rank": h.free_rank, "torsion": h.torsion,
                         "snf": h.snf_diagonal}, f"H_1 = {h.describe()}")
        return 0
    if args.action == "thurston":
        N = serialize.matrix_from_json(serialize.read(args.n))
        res = mcg.thurston(N, args.word.split())
        obj = {
            "nu": res.nu,
            "trace": res.trace,
            "pseudo_anosov": res.is_pseudo_anosov,
            "stretch": res.stretch_factor,
        }
        if args.genus and res.stretch_factor:
            obj["volume_bound"] = res.volume_upper_bound(args.genus)
        text = (
            f"nu~{res.nu:.4f} stretch~{res.stretch_factor:.4f} pA=yes"
            if res.is_pseudo_anosov
            else f"nu~{res.nu:.4f} pA=no (|trace| = {abs(res.trace):.4f} <= 2)"
        )
        _emit(args, obj, text)
        return 0
    act = mcg.twist_sequence_action(args.sequence.split(), args.genus)  # thickened
    labs = act.labels()
    obj = {"labels": labs, "matrix_columns": [support(c) for c in act.matrix], "cnots": act.cnots}
    moved = [
        f"{labs[j]} -> " + " + ".join(labs[i] for i in support(act.matrix[j]))
        for j in range(len(labs))
        if act.matrix[j] != 1 << j
    ]
    _emit(args, obj, "\n".join(moved) if moved else "identity on the membrane basis")
    return 0


def _load_form(path: str) -> mcg.TripleForm:
    data = serialize.read(path)
    serialize._check_object(data, "form")
    if "m" in data:
        return serialize.form_from_json(data).mod2()
    form = mcg.TripleForm(serialize._field(data, "labels", list))
    if "coeffs" not in data:
        return form
    for key, v in serialize.form_entries(data):
        idx = frozenset(key)
        if len(idx) != 3 or not idx <= set(range(len(form.labels))):
            raise ValueError(f"form coefficient key {key} needs three distinct indices in "
                             f"0..{len(form.labels) - 1}")
        form.coefficients[idx] = v if v in (0, 1) else mcg.UNKNOWN
    return form


def cmd_hypergraph(args) -> int:
    if args.action == "build":
        form = _load_form(args.file)
        h = hypergraph.base_hypergraph(form)
        if args.lift:
            h = hypergraph.lift_full(h)
        if args.export == "dot":
            text = hypergraph.to_dot(h)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        kappa = hypergraph.magic_state_complexity(h) if h.kind == "full" else None
        obj = serialize.hypergraph_to_json(h)
        text = f"{len(h.vertices)} vertices, {len(h.hyperedges)} hyperedges"
        if kappa is not None:
            text += f", kappa={kappa}"
        _emit(args, obj, text)
        return 0
    rep = hypergraph.degree_report(serialize.hypergraph_from_json(serialize.read(args.file)))
    obj = {  # degrees
        "histogram": {str(k): v for k, v in sorted(rep.histogram.items())},
        "max_degree": rep.max_degree,
        "star_like": rep.star_like,
    }
    _emit(args, obj, rep.text())
    return 0


def cmd_sullivan(args) -> int:
    mu = serialize.form_from_json(serialize.read(args.file))
    if args.action == "synth":
        res = sullivan.synthesize(mu)
        obj = {
            "tau": res.tau,
            "m": res.m,
            "fixes_kernel": res.fixes_kernel_lattice(),
            "predicted_unit_triples": res.predicted_form.known_unit_triples(),
        }
        _emit(args, obj, f"tau is {2 * res.m}x{2 * res.m}; "
                         f"{len(res.predicted_form.known_unit_triples())} unit triples")
        return 0
    rep = sullivan.roundtrip_check(mu)  # roundtrip
    _emit(args, {"passed": rep.passed, "failures": rep.failures},
          "PASS" if rep.passed else "FAIL:\n" + "\n".join(rep.failures))
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# report / manifest
# ---------------------------------------------------------------------------


def _is_number(v) -> bool:
    return type(v) in (int, float)  # a JSON number, not a bool


def cmd_report(args) -> int:
    data = serialize.read(args.file)
    serialize._check_object(data, "report")
    if "hx" in data:
        code = serialize.code_from_json(data)
        res = codes.distance(code, args.budget, "z")
        flag = "exact" if res.exact else "bound"
        text = f"n={code.n} k={code.k} d_z={res.dz}({flag})"
        obj = {"n": code.n, "k": code.k, "dz": res.dz, "flag": flag}
    elif "nu" in data:
        nu, stretch = data["nu"], data.get("stretch")
        if not _is_number(nu) or not (stretch is None or _is_number(stretch)):
            raise ValueError("a thurston file needs a number 'nu' and a number or null 'stretch'")
        pa = "yes" if data.get("pseudo_anosov") else "no"
        text = f"nu~{nu:.4f} stretch~{stretch or float('nan'):.4f} pA={pa}"
        obj = data
    elif "hyperedges" in data:
        h = serialize.hypergraph_from_json(data)
        text = f"{len(h.vertices)} vertices, {len(h.hyperedges)} hyperedges"
        obj = {"vertices": len(h.vertices), "hyperedges": len(h.hyperedges)}
        if h.kind == "full":
            kappa = hypergraph.magic_state_complexity(h)
            text += f", kappa={kappa}"
            obj["kappa"] = kappa
    else:
        raise SystemExit("unknown subject: expected a code, thurston, or hypergraph file")
    _emit(args, obj, text)
    return 0


def _dig(obj, path: str):
    for part in path.split("."):
        if part == "#":
            return len(obj)
        obj = obj[int(part)] if isinstance(obj, list) else obj[part]
    return obj


def _read_manifest(path: str) -> tuple[list[list[str]], list[dict]]:
    """(steps, expects) of a manifest file: an object with no keys but
    "steps", a list of commands, each a list of str or int tokens, and
    "expect", a list of objects with a str "file", a str "path", a "value",
    an optional number "tol" and an optional str "provenance"."""
    manifest = serialize.read(path)
    serialize._check_object(manifest, "manifest")
    extra = sorted(set(manifest) - {"steps", "expect"})
    if extra:
        raise ValueError("a manifest holds only 'steps' and 'expect', not "
                         + ", ".join(map(repr, extra)))
    steps = serialize._field(manifest, "steps", list, [])
    for step in steps:
        if type(step) is not list or any(type(t) not in (str, int) for t in step):
            raise ValueError(f"manifest step {step!r} is not a list of str or int tokens")
    expects = serialize._field(manifest, "expect", list, [])
    for exp in expects:
        if type(exp) is not dict or "value" not in exp:
            raise ValueError(f"manifest expect entry {exp!r} is not an object with a 'value'")
        serialize._field(exp, "file", str)
        serialize._field(exp, "path", str)
        serialize._field(exp, "provenance", str, "")
        if not _is_number(exp.get("tol", 0)):
            raise ValueError(f"'tol' must be a number, not {type(exp['tol']).__name__}")
    return [[str(t) for t in step] for step in steps], expects


def run_manifest(path: str) -> tuple[int, list[str]]:
    """Execute a pipeline manifest: run each step through the CLI in-process,
    then diff outputs against the expected-values table."""
    steps, expects = _read_manifest(path)
    lines: list[str] = []
    if not steps and not expects:
        lines.append("warning: empty manifest (PASS, zero checks)")
        return 0, lines
    for i, step in enumerate(steps):
        try:
            rc = main(step)
            why = f"exit {rc}"
        except SystemExit as exc:  # argparse errors exit 2; a message exits 1
            rc = exc.code if isinstance(exc.code, int) else 1
            why = f"exit {rc}" if isinstance(exc.code, int) else str(exc.code)
        except (OSError, KeyError, ValueError) as exc:  # unreadable or malformed input
            rc, why = 1, f"{type(exc).__name__}: {exc}"
        if rc != 0:
            lines.append(f"step {i} failed ({why}): {' '.join(step)}")
            return rc, lines
        lines.append(f"step {i} ok: {' '.join(step)}")
    failures = 0
    for exp in expects:
        fname = exp["file"]
        if not os.path.exists(fname):
            lines.append(f"FAIL {fname}: missing file")
            failures += 1
            continue
        try:
            got = _dig(serialize.read(fname), exp["path"])
        except (KeyError, IndexError, TypeError, ValueError):
            lines.append(f"FAIL {fname}:{exp['path']}: path not found")
            failures += 1
            continue
        want, tol = exp["value"], exp.get("tol", 0)
        ok = abs(got - want) <= tol if tol and _is_number(want) and _is_number(got) else got == want
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {fname}:{exp['path']} = {got!r} "
                     f"(expected {want!r}) [{exp.get('provenance', '')}]")
    return (1 if failures else 0), lines


def cmd_manifest(args) -> int:
    rc, lines = run_manifest(args.file)
    for line in lines:
        print(line)
    return rc


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: a manifest runs every step through main
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tricode", description=__doc__)
    top = p.add_subparsers(dest="command", required=True)

    def group(name):
        return top.add_parser(name).add_subparsers(dest="action", required=True)

    def leaf(parent, name, func, *files, emits=True):
        sp = parent.add_parser(name)
        for f in files:
            sp.add_argument(f)
        if emits:
            sp.add_argument("--out", help="write the result to this file")
            sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.set_defaults(func=func)
        return sp

    c = group("complex")
    b = leaf(c, "build", cmd_complex)
    b.add_argument("--preset", required=True,
                   help="t3 | sigma:g | sigma-rot:g | product:g,layers | circle:n | mapping-torus")
    b.add_argument("--twist", help="twist spec JSON for mapping-torus")
    leaf(c, "validate", cmd_complex, "file")
    leaf(c, "subdivide", cmd_complex, "file")

    h = group("homology")
    for action in ("betti", "basis"):
        leaf(h, action, cmd_homology, "file").add_argument("--dim", type=int,
                                                           required=action == "basis")

    leaf(top, "snf", cmd_snf, "file")

    cu = group("cup")
    leaf(cu, "triple", cmd_cup, "file").add_argument(
        "--cocycles", required=True, help="i,j,k indices into the canonical H^1 basis")
    leaf(cu, "form", cmd_cup, "file")

    cd = group("code")
    leaf(cd, "build", cmd_code, "file").add_argument("--type", default="toric:1",
                                                     help="toric:copies | color")
    d = leaf(cd, "distance", cmd_code, "file")
    d.add_argument("--method", default="exact", choices=("exact", "bfs"),
                   help="bfs: the check graph only")
    d.add_argument("--sector", default="both", choices=("both", "x", "z"))
    d.add_argument("--budget", type=int, default=1 << 22)
    d.add_argument("--complex", help="not read: the distance comes from the code file alone")

    g = group("gate")
    leaf(g, "ccz", cmd_gate, "file")
    cz = leaf(g, "cz", cmd_gate, "file")
    cz.add_argument("--membrane", required=True, help="2-cycle JSON")
    cz.add_argument("--copies", default="1,2")
    leaf(g, "t", cmd_gate, "file")
    leaf(g, "check", cmd_gate, "circuit", "code")
    leaf(g, "action", cmd_gate, "circuit", "code")
    sim = leaf(g, "simulate", cmd_gate, "circuit", "code")
    sim.add_argument("--plus", default="all", help="logical qubits initialised |+>: 'all' or csv")
    sim.add_argument("--fixed", default="", help="binary string of fixed logical values")

    m = group("mcg")
    tw = leaf(m, "twist", cmd_mcg)
    tw.add_argument("--curve", required=True, help="a:i | b:i | f:i | comma vector")
    th = leaf(m, "torus-homology", cmd_mcg)
    th.add_argument("--matrix", required=True, help="mapping class matrix JSON")
    th.add_argument("--coeff", default="z", help="z | z2")
    tu = leaf(m, "thurston", cmd_mcg)
    tu.add_argument("--n", required=True, help="intersection matrix JSON")
    tu.add_argument("--word", default="A B", help="word over A B A- B-")
    tk = leaf(m, "thickened", cmd_mcg)
    tk.add_argument("--sequence", required=True, help="twist sequence, e.g. 'b:2 b:1 f:1'")
    for sp in (tw, tu, tk):
        sp.add_argument("--genus", type=int, default=2)

    hg = group("hypergraph")
    hb = leaf(hg, "build", cmd_hypergraph, "file")
    hb.add_argument("--lift", action="store_true")
    hb.add_argument("--export", choices=("json", "dot"), default="json")
    leaf(hg, "degrees", cmd_hypergraph, "file")

    sv = group("sullivan")
    for action in ("synth", "roundtrip"):
        leaf(sv, action, cmd_sullivan, "file")

    leaf(top, "report", cmd_report, "file").add_argument("--budget", type=int, default=1 << 22)
    leaf(top, "run-manifest", cmd_manifest, "file", emits=False)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_main(argv: list[str] | None = None) -> int:
    """The ``tricode`` command: main, with unreadable or malformed input
    reported as one ``error:`` line on stderr and exit status 1 rather than
    a traceback (``run_manifest`` reports the same errors per step)."""
    try:
        return main(argv)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(console_main())
