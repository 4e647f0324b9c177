"""CSS codes from complexes: toric-code copies and the fattened color code.

Logical X operators are stored as 1-cocycles (the membrane picture is their
Poincare dual); each logical qubit carries the label of the dual 2-cycle when
the builder named one, so gate reports speak in those cycle names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complexes import DeltaComplex, barycentric_subdivide
from .gf2 import (BitMatrix, dot, dual_basis, extend_basis, kernel_from_rref, row_reduce,
                  support, vec_from_support)
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
    # each copy is the single-copy matrices shifted, so one copy decides it
    if not hx1.matmul(hz1.transpose()).is_zero():
        raise ValueError("CSS condition fails: the boundary of a boundary is nonzero")
    return CssCode(n, BitMatrix(len(hx_rows), n, hx_rows),
                   BitMatrix(len(hz_rows), n, hz_rows), lx, lz, meta)


def color_code(K: DeltaComplex) -> CssCode:
    """Color code via fattening: qubits on the flags (top simplices of the
    barycentric subdivision), X stabilizer per subdivision vertex, Z
    stabilizer per subdivision edge (the x = 0, z = 1 splitting).

    meta carries each flag's chain of original cells and its sign under the
    canonical two-colouring: the parity of the permutation ordering the cell
    chain times the coherent orientation of the ambient top cell (pure
    parity alone fails to alternate across neighbouring tetrahedra).
    Adjacent flags always get opposite signs.  Logical X extends span(hx)
    over ker hz; logical Z is picked by the k-bit class of each free column of
    hx's RREF (``_kernel_picks``), so ker hx is never built.
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
    lz = _kernel_picks(*hx_rref, lx, n)
    k = n - len(hx_rref[0]) - len(hz_rref[0])
    if not len(lx) == len(lz) == k:
        raise RuntimeError("color code logical extraction failed")
    lx = dual_basis(lx, lz)
    if lx is None:
        raise RuntimeError("logical pairing is degenerate")

    # the flags of a tetrahedron are its 24 chains in one order, so a flag's
    # parity is that of its chain position, times the tetrahedron's eps
    per = n // max(K.n_cells(3), 1)
    parity = [sub.flag_sign(D, s) for s in range(per)]
    meta = {
        "kind": "color",
        "flags": sub.cell_chain[D],
        "signs": [parity[s % per] * eps[s // per] for s in range(n)],
        "labels": [(f"c{i}", 0) for i in range(k)],
        "qubit": [("flag", s) for s in range(n)],
    }
    code = CssCode(n, hx, hz, lx, lz, meta)
    if not code.css_condition():
        raise ValueError("CSS condition fails: a vertex and an edge of the subdivision "
                         "share an odd number of flags")
    return code


def _kernel_picks(basis: list[int], pivots: list[int], lx: list[int], n: int) -> list[int]:
    """The kernel vectors of hx that ``extend_basis(hz RREF, kernel_from_rref(
    basis, pivots, n))`` picks, with (basis, pivots) the RREF of hx and lx
    completing span(hx) to ker hz, read without building ker hx.

    v_j (free column j) lies in span(hz) iff it pairs trivially with every lx,
    since ker hz = span(hx) + span(lx) and span(hz) is its annihilator in
    ker hx.  So v_j enlarges the picks iff its k-bit class, its pairings with
    lx, is independent of theirs.  Bit j of lx_i + the RREF rows at the
    pivots of lx_i is the pairing of v_j with lx_i.
    """
    row_at = dict(zip(pivots, basis))
    pivot_mask = vec_from_support(pivots)
    planes = []  # each RREF row clears its pivot bit and no other
    for x in lx:
        for p in support(x & pivot_mask):
            x ^= row_at[p]
        planes.append(x)
    first: dict[int, int] = {}  # each nonzero class at its first column (a repeat is dependent)
    for j, c in enumerate(BitMatrix(len(planes), n, planes).transpose().rows):
        if c:
            first.setdefault(c, j)
    picked = [first[c] for c in extend_basis([], list(first))]
    vecs = {j: 1 << j for j in picked}
    for row, p in zip(basis, pivots):
        for j in picked:
            if row >> j & 1:
                vecs[j] |= 1 << p
    return list(vecs.values())


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


def _min_weight_logical(commute_rows: list[int], pair_ops: list[int], n: int,
                        budget: int | None, sector: str) -> tuple[int | None, int | None, bool]:
    """(weight, certificate, exact) of a lightest v in ker commute_rows with a
    nonzero pairing with pair_ops; (None, None, True) if none exists.  If each
    qubit lies in at most two rows it is an edge of the check graph (a vertex
    per row, a hub for missing ends), v is its shortest cycle of nonzero
    pair_ops class.  Else ``budget`` supports are enumerated; None refuses.
    """
    if not pair_ops:
        return None, None, True
    hub = len(commute_rows)
    M = BitMatrix(hub, n, commute_rows)
    ends = [support(c) for c in M.transpose().rows]
    crowded = next((q for q, e in enumerate(ends) if len(e) > 2), None)
    if crowded is None:
        ecls = BitMatrix(len(pair_ops), n, pair_ops).transpose().rows
        found = _shortest_nontrivial_cycle(hub + 1, [(e + [hub, hub])[:2] for e in ends], ecls)
        return (*found, True) if found else (None, None, True)
    if budget is None:
        raise ValueError(f"bfs finds d_{sector} only when every qubit lies in at most two "
                         f"{'XZ'[sector == 'x']} checks; qubit {crowded} lies in "
                         f"{len(ends[crowded])} of them")
    spent = 0
    for w in range(1, n + 1):
        for comb in itertools.combinations(range(n), w):
            spent += 1
            if spent > budget:
                return None, None, False
            v = vec_from_support(comb)
            if M.matvec(v) == 0 and any(dot(v, p) for p in pair_ops):
                return w, v, True
    return None, None, True


def distance(code: CssCode, method: str = "exact", budget: int = 1 << 26,
             sector: str = "both") -> DistanceResult:
    """(d_x, d_z) with minimum-weight certificates, from the code alone.

    exact: the check graph's shortest nonzero-class cycle where every qubit
    lies in at most two of the sector's checks (d_z of toric codes, d_x of
    surface ones), else enumeration of ``budget`` supports.  bfs: the check
    graph only, ValueError for a sector that is not a graph.
    """
    if method not in ("exact", "bfs"):
        raise ValueError(f"unknown method {method!r}")
    if code.k == 0:
        return DistanceResult(None, None, True, note="k = 0: distance undefined")
    found = {s: _min_weight_logical(checks, pairs, code.n, budget if method == "exact" else None, s)
             for s, checks, pairs in (("z", code.hx.rows, code.logical_x),
                                      ("x", code.hz.rows, code.logical_z)) if sector in ("both", s)}
    (dz, cz, ez), (dx, cx, ex) = (found.get(s, (None, None, True)) for s in "zx")
    note = "" if ez and ex else f"budget {budget} exceeded; partial search only"
    return DistanceResult(dx, dz, ez and ex, cx, cz, note)


def _shortest_nontrivial_cycle(V: int, ends, ecls: list[int]) -> tuple[int, int] | None:
    """(length, edge set) of a shortest cycle of nonzero class, edge e joining
    ends[e] with class ecls[e]; None if every cycle has class 0.  The BFS tree
    of each root closes a walk tree(u) + uw + tree(w) per edge uw; a shortest
    nontrivial cycle through the root is one of them (Erickson and
    Whittlesey, SODA 2005), and simple, so its weight is its length.  A BFS
    stops once 2 dist + 1 >= best."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]  # (neighbour, edge)
    for e, (a, b) in enumerate(ends):
        adj[a].append((b, e))
        adj[b].append((a, e))
    best = None
    for root in range(V):
        dist, cls, chain, order = {root: 0}, {root: 0}, {root: 0}, [root]  # chain: tree path
        for v in order:
            if best is not None and 2 * dist[v] + 1 >= best[0]:
                break
            for w, e in adj[v]:
                if w not in dist:
                    dist[w], cls[w], chain[w] = dist[v] + 1, cls[v] ^ ecls[e], chain[v] ^ 1 << e
                    order.append(w)
                elif cls[v] ^ ecls[e] ^ cls[w] and (best is None or dist[v] + 1 + dist[w] < best[0]):
                    best = (dist[v] + 1 + dist[w], chain[v] ^ chain[w] ^ 1 << e)
    return best


def systole_bfs(K: DeltaComplex) -> tuple[int, int]:
    """(length, edge set) of a shortest homologically nontrivial edge cycle:
    the d_z search of ``distance`` with edge classes read off H^1
    representatives, so it equals d_z of toric_code(K)."""
    _, _, cocycles, coboundaries = homology.chain_spaces(K, 1)
    reps = extend_basis(coboundaries, cocycles)
    if not reps:
        raise ValueError("no nontrivial cycles")
    ecls = BitMatrix(len(reps), K.n_cells(1), reps).transpose().rows
    return _shortest_nontrivial_cycle(K.n_cells(0), K.face[1], ecls)
