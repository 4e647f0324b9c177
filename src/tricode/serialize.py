"""JSON round-trips for every artifact the CLI exchanges.

Formats (documented in the README):
  complex    {"dims": n, "simplices": [{"dim": k, "faces": [..], "label": ..}..],
              "cycles": {name: {"dim": d, "cells": [..]}}}   (cycles optional)
  matrix     {"rows": r, "cols": c, "entries": [[..], ..]}
  cochain    {"dim": n, "support": [..]}
  code       {"format": 2, "n": .., "hx": [[..]], "hz": [[..]],
              "logical_x": [[..]], "logical_z": [[..]], "meta": [..],
              "extra": {..}}
             hx, hz and the logicals are support lists (the qubits of each
             row, increasing).  A code file without "format" is the older
             dense layout (format 1: hx/hz rows of n 0/1 entries), still read.
  circuit    {"n": .., "gates": [["CCZ", [a, b, c]], ..]}
  hypergraph {"kind": "base"|"full", "vertices": [..], "hyperedges": [[..]]}
             (a file with an "unknown" key, of UNKNOWN triples, is refused)
  form       {"m": m, "coeffs": {"1,2,3": 1, ..}}

All dumps are sorted-key and newline-terminated for diff stability.
"""

from __future__ import annotations

import json

from .complexes import DeltaComplex
from .codes import CssCode
from .gates import DiagonalCircuit
from .gf2 import BitMatrix, support, vec_from_support
from .hypergraph import Hypergraph
from .sullivan import ThreeForm


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def read(path: str):
    with open(path) as fh:
        return json.load(fh)


_JSON_TYPE = {list: "a list", dict: "an object", str: "a string", int: "an int"}


def _field(data: dict, key: str, kind: type, default=None):
    """data[key], or ``default`` when one is given and the key is absent.
    Raises ValueError unless the value has the JSON type ``kind``."""
    val = data[key] if default is None else data.get(key, default)
    if type(val) is not kind:
        raise ValueError(f"{key!r} must be {_JSON_TYPE[kind]}, not {type(val).__name__}")
    return val


def _size(data: dict, key: str, what: str) -> int:
    val = data[key]
    if type(val) is not int or val < 0:
        raise ValueError(f"{what} {key} {val!r} is not a nonnegative int")
    return val


def _check_object(data, what: str) -> None:
    if type(data) is not dict:
        raise ValueError(f"a {what} file must hold a JSON object, not {type(data).__name__}")


# -- complex ---------------------------------------------------------------


def complex_to_json(K: DeltaComplex) -> dict:
    simplices = []
    for n in range(K.dims + 1):
        for s in range(K.n_cells(n)):
            entry: dict = {"dim": n, "faces": K.face[n][s]}
            lab = K.labels.get((n, s))
            if lab is not None:
                entry["label"] = lab
            simplices.append(entry)
    out = {"dims": K.dims, "simplices": simplices}
    if K.cycles:
        out["cycles"] = {nm: {"dim": d, "cells": cells} for nm, (d, cells) in K.cycles.items()}
    return out


def complex_from_json(data: dict) -> DeltaComplex:
    """The complex of a JSON object, checked by ``DeltaComplex`` itself."""
    _check_object(data, "complex")
    dims = _size(data, "dims", "complex")
    simplices = _field(data, "simplices", list)
    if dims > len(simplices):  # levels 0..dims, each inhabited, need dims + 1 simplices
        raise ValueError(f"complex dims {dims} exceeds its {len(simplices)} simplices")
    face: list[list[tuple[int, ...]]] = [[] for _ in range(dims + 1)]
    labels: dict = {}
    for entry in simplices:
        n = entry.get("dim") if type(entry) is dict else None
        if type(n) is not int or not 0 <= n <= dims or type(entry.get("faces")) is not list:
            raise ValueError(f"simplex {entry!r}: needs a dim in 0..{dims} and a list of faces")
        idx = len(face[n])
        face[n].append(tuple(entry["faces"]))
        if "label" in entry:
            labels[(n, idx)] = entry["label"]
    cycles = {}
    for nm, cyc in _field(data, "cycles", dict, {}).items():
        if type(cyc) is not dict or type(cyc.get("cells")) is not list:
            raise ValueError(f"cycle {nm!r}: needs an object with a dim and a list of cells")
        cycles[nm] = (cyc["dim"], tuple(cyc["cells"]))
    return DeltaComplex(face, labels, cycles)


# -- matrices and cochains ---------------------------------------------------


def matrix_to_json(entries: list[list[int]]) -> dict:
    return {"rows": len(entries), "cols": len(entries[0]) if entries else 0, "entries": entries}


def matrix_from_json(data: dict) -> list[list[int]]:
    _check_object(data, "matrix")
    M = _field(data, "entries", list)
    rows, cols = _size(data, "rows", "matrix"), _size(data, "cols", "matrix")
    if len(M) != rows:
        raise ValueError(f"matrix has {len(M)} rows but declares {rows}")
    for i, r in enumerate(M):
        if type(r) is not list or any(type(e) is not int for e in r):
            raise ValueError(f"matrix row {i} is not a list of ints: {r!r}")
        if len(r) != cols:
            raise ValueError(f"matrix row {i} has {len(r)} entries but declares {cols} columns")
    return M


def cochain_from_json(data: dict, K: DeltaComplex) -> tuple[int, int]:
    """(dim, bit vector) of a chain or cochain on K: an int dim and a strictly
    increasing list of cell indices below K.n_cells(dim)."""
    _check_object(data, "cochain")
    dim = data["dim"]
    if type(dim) is not int:
        raise ValueError(f"cochain dim {dim!r} is not an int")
    cells, ncells = _field(data, "support", list), K.n_cells(dim)
    if any(type(c) is not int for c in cells) or any(
            a >= b for a, b in zip([-1] + cells, cells + [ncells])):
        raise ValueError(f"'support' must be a strictly increasing list of {dim}-cell "
                         f"indices in 0..{ncells - 1}")
    return dim, vec_from_support(cells)


# -- codes -------------------------------------------------------------------


def code_to_json(code: CssCode) -> dict:
    extra = {key: code.meta[key] for key in ("kind", "copies", "edges", "labels", "signs")
             if key in code.meta}
    return {
        "format": 2,
        "n": code.n,
        "hx": [support(r) for r in code.hx.rows],
        "hz": [support(r) for r in code.hz.rows],
        "logical_x": [support(v) for v in code.logical_x],
        "logical_z": [support(v) for v in code.logical_z],
        "meta": code.meta.get("qubit", []),
        "extra": extra,
    }


def _check_supports(name: str, rows: list, n: int) -> None:
    """Every row must be a strictly increasing list of ints in 0..n-1."""
    for i, r in enumerate(rows):
        if not isinstance(r, list):
            raise ValueError(f"{name} row {i} is not a list of qubits: {r!r}")
        prev = -1
        for q in r:
            if type(q) is not int or not prev < q < n:
                raise ValueError(f"{name} row {i} is not an increasing list of "
                                 f"qubits in 0..{n - 1}: {r!r}")
            prev = q


def _matrix_from_json(name: str, rows: list, n: int, fmt: int) -> BitMatrix:
    """hx or hz as bit-packed rows, from support lists (format 2) or dense
    0/1 rows of length n (format 1)."""
    if fmt == 1:
        if any(type(r) is not list or len(r) != n for r in rows):
            raise ValueError(f"{name} has a row whose length is not n = {n}")
        return BitMatrix(len(rows), n, BitMatrix.from_entries(rows).rows)
    _check_supports(name, rows, n)
    return BitMatrix(len(rows), n, [vec_from_support(r) for r in rows])


def code_from_json(data: dict) -> CssCode:
    _check_object(data, "code")
    n = _size(data, "n", "code")
    fmt = data.get("format", 1)
    if type(fmt) is not int or fmt not in (1, 2):
        raise ValueError(f"unknown code format {fmt!r} (expected 1 or 2)")
    hx = _matrix_from_json("hx", _field(data, "hx", list), n, fmt)
    hz = _matrix_from_json("hz", _field(data, "hz", list), n, fmt)
    lx, lz = _field(data, "logical_x", list), _field(data, "logical_z", list)
    _check_supports("logical_x", lx, n)
    _check_supports("logical_z", lz, n)
    lx, lz = [vec_from_support(s) for s in lx], [vec_from_support(s) for s in lz]
    qubits = _field(data, "meta", list, [])
    # n must be backed by the content (a meta entry, a qubit index, or the n
    # entries of a dense row), else distance and check would size their work
    # by a number that the file does not hold
    dense = fmt == 1 and hx.nrows + hz.nrows > 0
    backed = n if dense else max([len(qubits)] + [v.bit_length() for v in hx.rows + hz.rows + lx + lz])
    if n > backed:
        raise ValueError(f"code n {n} exceeds the {backed} qubits that its meta, rows and "
                         "logicals name")
    meta = {"qubit": [tuple(q) for q in qubits if type(q) is list]}
    if len(meta["qubit"]) != len(qubits):
        raise ValueError("'meta' must be a list of per-qubit lists")
    extra = _field(data, "extra", dict, {})
    for key, val in extra.items():
        if key in ("labels", "signs"):  # CssCode checks their entries
            val = _field(extra, key, list)
        meta[key] = [tuple(v) if isinstance(v, list) else v for v in val] if key == "labels" else val
    return CssCode(n, hx, hz, lx, lz, meta)


# -- circuits -----------------------------------------------------------------


def circuit_to_json(circ: DiagonalCircuit) -> dict:
    return {"n": circ.n, "gates": circ.gates}


def circuit_from_json(data: dict) -> DiagonalCircuit:
    _check_object(data, "circuit")
    gates = []
    for gate in _field(data, "gates", list):
        if type(gate) is not list or len(gate) != 2 or type(gate[0]) is not str \
                or type(gate[1]) is not list:
            raise ValueError(f"gate {gate!r} is not a [kind, [qubits]] pair")
        gates.append((gate[0], tuple(gate[1])))
    return DiagonalCircuit(_size(data, "n", "circuit"), gates)


# -- hypergraphs and forms -----------------------------------------------------


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"kind": h.kind, "vertices": h.vertices, "hyperedges": h.hyperedges}


def hypergraph_from_json(data: dict) -> Hypergraph:
    def devert(v):
        if type(v) in (str, int):
            return v
        if type(v) is list and all(type(x) in (str, int) for x in v):
            return tuple(v)
        raise ValueError(f"hypergraph vertex {v!r} is not a str or int, or a list of them")

    _check_object(data, "hypergraph")
    if "unknown" in data:  # UNKNOWN-ALGEBRAIC triples are never silently dropped
        raise ValueError("hypergraph has UNKNOWN-ALGEBRAIC triples ('unknown'); "
                         "no hypergraph result is defined")
    vertices = [devert(v) for v in _field(data, "vertices", list)]
    edges = []
    for e in _field(data, "hyperedges", list):
        if type(e) is not list:
            raise ValueError(f"'hyperedges' entry {e!r} is not a list of vertices")
        edges.append(tuple(devert(v) for v in e))
    return Hypergraph(_field(data, "kind", str), vertices, edges)


def form_entries(data: dict) -> list[tuple[tuple[int, int, int], object]]:
    """The coefficients of a form file as ((i, j, k), value) pairs, each key
    "i,j,k" read as three ints in the order written."""
    out = []
    for key, v in _field(data, "coeffs", dict).items():
        try:
            idx = tuple(int(t) for t in key.split(","))
        except ValueError:
            idx = ()
        if len(idx) != 3:
            raise ValueError(f"form coefficient key {key!r} is not three comma-separated ints")
        out.append((idx, v))
    return out


def form_from_json(data: dict) -> ThreeForm:
    _check_object(data, "form")
    m = _size(data, "m", "form")
    coeffs = dict(form_entries(data))
    bad = [v for v in coeffs.values() if type(v) is not int]
    if bad:
        raise ValueError(f"form coefficient {bad[0]!r} is not an int")
    return ThreeForm(m, coeffs)
