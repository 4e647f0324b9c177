"""CSS codes from complexes: toric-code copies and the fattened color code.

Logical X operators are stored as 1-cocycles (the membrane picture is their
Poincare dual); each logical qubit carries the label of the dual 2-cycle when
the builder named one, so gate reports speak in those cycle names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complexes import DeltaComplex, barycentric_subdivide
from .gf2 import (BitMatrix, dot, dual_basis, extend_basis, kernel_from_rref, popcount, row_reduce,
                  vec_from_support)
from . import homology


@dataclass
class CssCode:
    n: int
    hx: BitMatrix
    hz: BitMatrix
    logical_x: list[int]
    logical_z: list[int]
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.logical_x)

    def css_condition(self) -> bool:
        return self.hx.matmul(self.hz.transpose()).is_zero()

    def logical_labels(self) -> list:
        return self.meta.get("labels", list(range(self.k)))

    def check_logicals(self) -> list[str]:
        bad = []
        for i, lx in enumerate(self.logical_x):
            if any(dot(lx, r) for r in self.hz.rows):
                bad.append(f"logical_x[{i}] anticommutes with a Z stabilizer")
        for i, lz in enumerate(self.logical_z):
            if any(dot(lz, r) for r in self.hx.rows):
                bad.append(f"logical_z[{i}] anticommutes with an X stabilizer")
        for i, lx in enumerate(self.logical_x):
            for j, lz in enumerate(self.logical_z):
                if dot(lx, lz) != (1 if i == j else 0):
                    bad.append(f"pairing logical_x[{i}] . logical_z[{j}] != {int(i == j)}")
        expect = self.n - self.hx.rank() - self.hz.rank()
        if expect != self.k:
            bad.append(f"k mismatch: n - rank hx - rank hz = {expect}, logicals = {self.k}")
        return bad


def toric_code(K: DeltaComplex, copies: int = 1) -> CssCode:
    """Qubits on the edges of each copy; X stabilizers are vertex stars
    (coboundaries of vertex indicators), Z stabilizers are face boundaries.

    Logical Z operators sit on a 1-cycle basis and logical X on the dual
    1-cocycles.  The builder's named cycles are used as the basis whenever
    they span H_1, in which case each logical qubit is labelled by the named
    2-cycle dual to its Z-string (recovered via poincare_duals).
    """
    if not 1 <= copies <= 3:
        raise ValueError("copies must be 1..3")
    E = K.n_cells(1)
    hx1 = homology.boundary_matrix(K, 1)  # rows: vertex stars
    hz1 = homology.boundary_matrix(K, 2).transpose()  # rows: face boundaries

    names, cycles, cocycles = homology.logical_basis(K, 1)
    if names is None:
        labels1 = [f"h{i}" for i in range(len(cycles))]
    else:
        labels1 = homology.dual_2cycle_labels(K, cycles)
        if None in labels1:
            labels1 = names

    n = copies * E
    hx_rows = [r << (cpy * E) for cpy in range(copies) for r in hx1.rows]
    hz_rows = [r << (cpy * E) for cpy in range(copies) for r in hz1.rows]
    lx = [c << (cpy * E) for cpy in range(copies) for c in cocycles]
    lz = [z << (cpy * E) for cpy in range(copies) for z in cycles]
    labels = [(lab, cpy + 1) for cpy in range(copies) for lab in labels1]
    meta = {
        "kind": "toric",
        "copies": copies,
        "edges": E,
        "labels": labels,
        "qubit": [("edge", e, cpy + 1) for cpy in range(copies) for e in range(E)],
    }
    code = CssCode(n, BitMatrix(len(hx_rows), n, hx_rows),
                   BitMatrix(len(hz_rows), n, hz_rows), lx, lz, meta)
    if not code.css_condition():
        raise ValueError("CSS condition fails: the boundary of a boundary is nonzero")
    return code


def color_code(K: DeltaComplex) -> CssCode:
    """Color code via fattening: qubits on the flags (top simplices of the
    barycentric subdivision), X stabilizer per subdivision vertex, Z
    stabilizer per subdivision edge (the x = 0, z = 1 splitting).

    meta carries each flag's chain of original cells and its sign under the
    canonical two-colouring: the parity of the permutation ordering the cell
    chain times the coherent orientation of the ambient top cell (pure
    parity alone fails to alternate across neighbouring tetrahedra).
    Adjacent flags always get opposite signs.
    """
    if K.dims != 3:
        raise ValueError("color_code needs a 3-complex")
    from .complexes import orientation_signs

    eps = orientation_signs(K)
    if eps is None:
        raise ValueError("complex is not orientable: no flag bipartition")
    sub = barycentric_subdivide(K)
    sd = sub.complex
    D = sd.dims
    n = sd.n_cells(D)

    # a flag's 6 edges are the 3 edges of its face 0 (vertices 123), edges 02
    # and 01 of its face 3 (vertices 012) and edge 03 of its face 1 (023);
    # its 4 vertices are the ends of edges 23 and 01
    f1, f2, f3 = sd.face[1], sd.face[2], sd.face[3]
    vert_rows = [0] * sd.n_cells(0)
    edge_rows = [0] * sd.n_cells(1)
    for s in range(n):
        bit = 1 << s
        t0, t1, _, t3 = f3[s]
        e23, e13, e12 = f2[t0]
        _, e02, e01 = f2[t3]
        for e in (e23, e13, e12, e02, e01, f2[t1][1]):
            edge_rows[e] |= bit
        for v in f1[e23] + f1[e01]:
            vert_rows[v] |= bit
    hx = BitMatrix(len(vert_rows), n, vert_rows)
    hz = BitMatrix(len(edge_rows), n, edge_rows)

    # one elimination each: ranks, null spaces and extension seeds share it
    hx_rref, hz_rref = row_reduce(hx.rows), row_reduce(hz.rows)
    lx = extend_basis(hx_rref[0], kernel_from_rref(*hz_rref, n))
    lz = extend_basis(hz_rref[0], kernel_from_rref(*hx_rref, n))
    k = n - len(hx_rref[0]) - len(hz_rref[0])
    if not len(lx) == len(lz) == k:
        raise RuntimeError("color code logical extraction failed")
    lx = dual_basis(lx, lz)
    if lx is None:
        raise RuntimeError("logical pairing is degenerate")

    meta = {
        "kind": "color",
        "flags": sub.cell_chain[D],
        "signs": [
            sub.flag_sign(D, s) * eps[sub.cell_chain[D][s][-1][1]] for s in range(n)
        ],
        "labels": [(f"c{i}", 0) for i in range(k)],
        "qubit": [("flag", s) for s in range(n)],
    }
    code = CssCode(n, hx, hz, lx, lz, meta)
    if not code.css_condition():
        raise ValueError("CSS condition fails: a vertex and an edge of the subdivision "
                         "share an odd number of flags")
    return code


@dataclass
class DistanceResult:
    dx: int | None
    dz: int | None
    exact: bool
    certificate_x: int | None = None
    certificate_z: int | None = None
    note: str = ""

    def flagged(self) -> str:
        if self.dx is None and self.dz is None:
            return "undefined (k = 0)"
        return "exact" if self.exact else "UPPER BOUND"


def _min_weight_logical(stab_rows: list[int], commute_rows: list[int],
                        pair_ops: list[int], n: int, budget: int) -> tuple[int | None, int | None, bool]:
    """Minimum weight of v with commute_rows . v = 0 and some pairing with
    pair_ops nonzero, by exhaustive enumeration in order of weight.

    Returns (weight, certificate, exact); (None, None, True) when k = 0 and
    a flagged partial bound when the budget runs out.
    """
    if not pair_ops:
        return None, None, True
    M = BitMatrix(len(commute_rows), n, commute_rows)
    spent = 0
    for w in range(1, n + 1):
        for comb in itertools.combinations(range(n), w):
            spent += 1
            if spent > budget:
                return None, None, False
            v = vec_from_support(comb)
            if M.matvec(v) != 0:
                continue
            if any(dot(v, p) for p in pair_ops):
                return w, v, True
    return None, None, True


def distance(code: CssCode, method: str = "exact", budget: int = 1 << 26,
             sector: str = "both") -> DistanceResult:
    """(d_x, d_z) with a minimum-weight certificate.

    exact: enumeration of supports in order of increasing weight, capped at
    ``budget`` candidates (flagged partial bound when exceeded).
    systole-bfs: upper bound from the shortest homologically nontrivial edge
    cycle of the underlying complex (meta must carry it), flagged UPPER BOUND;
    only for a toric code whose qubits are that complex's edges.
    """
    if code.k == 0:
        return DistanceResult(None, None, True, note="k = 0: distance undefined")
    if method == "exact":
        dz = cz = dx = cx = None
        ez = ex = True
        if sector in ("both", "z"):
            dz, cz, ez = _min_weight_logical(code.hz.rows, code.hx.rows, code.logical_x, code.n, budget)
        if sector in ("both", "x"):
            dx, cx, ex = _min_weight_logical(code.hx.rows, code.hz.rows, code.logical_z, code.n, budget)
        exact = ez and ex
        note = "" if exact else f"budget {budget} exceeded; partial search only"
        return DistanceResult(dx, dz, exact, cx, cz, note)
    if method == "systole-bfs":
        K = code.meta.get("complex")
        if K is None:
            raise ValueError("systole-bfs needs code.meta['complex']")
        kind, edges = code.meta.get("kind"), code.meta.get("edges")
        if kind != "toric" or edges != K.n_cells(1):
            raise ValueError(f"systole-bfs bounds d_z of a toric code on the complex's edges only "
                             f"(code kind {kind!r} on {edges} edges, complex {K.n_cells(1)} edges)")
        w, cert = systole_bfs(K)
        return DistanceResult(None, w, False, None, cert, "edge-systole upper bound for d_z")
    raise ValueError(f"unknown method {method!r}")


def systole_bfs(K: DeltaComplex) -> tuple[int, int]:
    """Shortest homologically nontrivial edge cycle, by fundamental cycles.

    A BFS tree from each root closes one walk tree(u) + uw + tree(w) per edge
    uw, with class cls(u) ^ cls(uw) ^ cls(w) against H^1 class representatives.
    Every shortest nontrivial cycle through the root is one of them (Erickson
    and Whittlesey, SODA 2005); being shortest it is simple, so the returned
    chain has weight equal to the length.
    """
    _, _, cocycles, coboundaries = homology.chain_spaces(K, 1)
    reps = extend_basis(coboundaries, cocycles)
    if not reps:
        raise ValueError("no nontrivial cycles")
    V, ends = K.n_cells(0), K.face[1]  # edge [v0 v1] has faces (v1, v0)
    ecls = BitMatrix(len(reps), len(ends), reps).transpose().rows
    adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]  # (neighbour, edge)
    for e, (v1, v0) in enumerate(ends):
        adj[v0].append((v1, e))
        adj[v1].append((v0, e))
    best = None
    for root in range(V):
        dist, cls, chain = {root: 0}, {root: 0}, {root: 0}  # tree path from the root
        order = [root]
        for v in order:
            for w, e in adj[v]:
                if w not in dist:
                    dist[w], cls[w], chain[w] = dist[v] + 1, cls[v] ^ ecls[e], chain[v] ^ 1 << e
                    order.append(w)
        for e, (v1, v0) in enumerate(ends):
            if v0 in dist and cls[v0] ^ ecls[e] ^ cls[v1]:
                length = dist[v0] + 1 + dist[v1]
                if best is None or length < best[0]:
                    best = (length, chain[v0] ^ chain[v1] ^ 1 << e)
    if best is None:
        raise RuntimeError("no homologically nontrivial edge cycle found")
    return best


def stabilizer_weights(code: CssCode) -> dict[str, list[int]]:
    return {
        "x": sorted(popcount(r) for r in code.hx.rows),
        "z": sorted(popcount(r) for r in code.hz.rows),
    }
