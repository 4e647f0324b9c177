"""CSS codes from complexes: toric-code copies and the fattened color code.

Logical X operators are stored as 1-cocycles (the membrane picture is their
Poincare dual); each logical qubit carries its class's name from
``homology.logical_labels``, so gate reports and hypergraphs share names.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .complexes import DeltaComplex, _flag_chains, _flag_offsets, _relabel, orientation_signs
from .gf2 import BitMatrix, dot, dual_basis, quotient_bases, support, vec_from_support
from . import homology


@dataclass(frozen=True)
class CssCode:
    """A CSS code, checked once, at construction: hx and hz have n columns and
    no row or logical a qubit at or above n, the logicals come in k pairs,
    and meta's "labels" (k distinct ints, strs or pairs of them) and "signs"
    (n entries of +1 or -1) are well-formed when present.

    ``_spans_ker_hz`` is set only by ``toric_code`` and ``color_code``: the
    code is CSS and logical_x completes span(hx) to ker hz, by construction.
    A loaded, hand-made or ``dataclasses.replace``d code starts without it.
    """
    n: int
    hx: BitMatrix
    hz: BitMatrix
    logical_x: list[int]
    logical_z: list[int]
    meta: dict = field(default_factory=dict)
    _spans_ker_hz: bool = field(init=False, default=False, repr=False, compare=False)

    def __post_init__(self):
        n, k, meta = self.n, len(self.logical_x), self.meta
        if self.hx.ncols != n or self.hz.ncols != n:
            raise ValueError(f"hx and hz have {self.hx.ncols} and {self.hz.ncols} columns, "
                             f"not n = {n}")
        if any(v >> n for v in itertools.chain(self.hx.rows, self.hz.rows, self.logical_x,
                                               self.logical_z)):
            raise ValueError(f"a check row or logical has a qubit at or above n = {n}")
        if len(self.logical_z) != k:
            raise ValueError("logical_x and logical_z differ in length")
        labels = meta.get("labels", range(k))
        named = all(type(v) in (int, str) or type(v) is tuple and len(v) == 2
                    and all(type(x) in (int, str) for x in v) for v in labels)
        if len(labels) != k or not named or len(set(labels)) != k:
            raise ValueError(f"'labels' must be {k} distinct ints, strs or pairs of them, one per "
                             f"logical qubit ({len(labels)} given)")
        signs = meta.get("signs", ())
        if "signs" in meta and len(signs) != n:
            raise ValueError(f"'signs' has {len(signs)} entries for {n} qubits")
        bad = next((i for i, s in enumerate(signs) if type(s) is not int or s not in (1, -1)), None)
        if bad is not None:
            raise ValueError(f"'signs' entry {bad} is {signs[bad]!r}, not +1 or -1")

    @property
    def k(self) -> int:
        return len(self.logical_x)

    def logical_labels(self) -> list:
        return self.meta.get("labels", list(range(self.k)))

def toric_code(K: DeltaComplex, copies: int = 1) -> CssCode:
    """Qubits on the edges of each copy; X stabilizers are vertex stars
    (coboundaries of vertex indicators), Z stabilizers are face boundaries.

    Logical Z operators sit on a 1-cycle basis and logical X on the dual
    1-cocycles.  The builder's named cycles are used as the basis whenever
    they span H_1, and each logical qubit carries the name
    ``homology.logical_labels`` gives its class, as the triple form's labels
    do.  The CSS condition is del_1 del_2 = 0, which every complex meets from
    its construction on.
    """
    if not 1 <= copies <= 3:
        raise ValueError("copies must be 1..3")
    E = K.n_cells(1)
    hx1 = homology.boundary_matrix(K, 1)  # rows: vertex stars
    hz1 = homology.boundary_matrix(K, 2).transpose()  # rows: face boundaries

    names, cycles, cocycles = homology.logical_basis(K)
    labels1 = homology.logical_labels(K, names, cycles)

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
    code = CssCode(n, BitMatrix(len(hx_rows), n, hx_rows), BitMatrix(len(hz_rows), n, hz_rows),
                   lx, lz, meta)
    object.__setattr__(code, "_spans_ker_hz", True)  # logical_basis: H^1 over im del_0
    return code


def color_code(K: DeltaComplex) -> CssCode:
    """Color code via fattening: qubits on the flags (top simplices of the
    barycentric subdivision), X stabilizer per subdivision vertex, Z
    stabilizer per subdivision edge (the x = 0, z = 1 splitting).

    The subdivision is never built.  A flag is a chain A_0 < A_1 < A_2 < A_3
    of vertex subsets of its tetrahedron; its vertices are the cells spanned
    by the A_i and its edges the pairs A_i < A_j, numbered as
    ``barycentric_subdivide`` numbers them, so each tetrahedron's 15
    iterated faces place the masks of its 24 flags (``_tetrahedron_flags``).

    meta carries each flag's sign under the canonical two-colouring: the
    parity of the permutation ordering its chain times the coherent
    orientation of its tetrahedron (pure parity alone fails to alternate
    across neighbouring tetrahedra), so adjacent flags get opposite signs.
    Both logical bases are picked by ``gf2.quotient_bases``, with no full
    kernel.

    The CSS condition holds without a check.  ``orientation_signs`` passes
    only when every triangle of K lies in exactly two tetrahedra, so every
    subdivision triangle lies in exactly two flags.  The flags through a
    subdivision edge then form cycles alternating between its two missing
    dimensions, an even number of them, and a subdivision vertex off the
    edge meets it in two flags per triangle they span.
    """
    if K.dims != 3:
        raise ValueError("color_code needs a 3-complex")

    eps = orientation_signs(K)
    if eps is None:
        raise ValueError("complex is not orientable: no flag bipartition")
    subsets, chains, _ = _flag_chains(3)
    offset = _flag_offsets(K, chains)
    vert_mask, edge_mask, parity = _tetrahedron_flags()
    keep = [tuple(sorted(A)) for A in subsets[3]]
    vert_rows = [0] * offset[0][4]
    edge_rows = [0] * offset[1][4]
    n = len(parity) * K.n_cells(3)
    for t in range(K.n_cells(3)):
        cells = [K.iterated_face(3, t, kp) for kp in keep]
        shift = len(parity) * t
        for (d, idx), m in zip(cells, vert_mask):
            vert_rows[offset[0][d] + idx] |= m << shift
        for (a, pos), m in edge_mask:
            d, idx = cells[a]
            edge_rows[offset[1][d] + idx * len(chains[d][1]) + pos] |= m << shift
    hx = BitMatrix(len(vert_rows), n, vert_rows)
    hz = BitMatrix(len(edge_rows), n, edge_rows)

    lx, lz = quotient_bases(hx.rows, hz.rows, n)
    lx = dual_basis(lx, lz)
    if lx is None:
        raise RuntimeError("logical pairing is degenerate")

    meta = {
        "kind": "color",
        "signs": [p * e for e in eps for p in parity],
        "labels": [(f"c{i}", 0) for i in range(len(lz))],
        "qubit": [("flag", s) for s in range(n)],
    }
    code = CssCode(n, hx, hz, lx, lz, meta)
    object.__setattr__(code, "_spans_ker_hz", True)  # quotient_bases; CSS as above
    return code


@functools.cache
def _tetrahedron_flags():
    """The 24 flags of a tetrahedron, one per chain A_0 < A_1 < A_2 < A_3 of
    its vertex subsets, in the order of ``_flag_chains``: the mask of the
    flags through each subset A (a subdivision vertex, in subset order) and
    through each pair A < B (a subdivision edge, keyed by B and the position
    of the chain (A, B) relabelled into B's vertices), and each flag's
    parity: that of the order in which its chain inserts the vertices."""
    subsets, chains, position = _flag_chains(3)
    at = {A: i for i, A in enumerate(subsets[3])}
    vert_mask = [0] * len(at)
    edge_mask: dict[tuple[int, int], int] = {}
    parity = []
    for i, c in enumerate(chains[3][3]):
        for A in c:
            vert_mask[at[A]] |= 1 << i
        for A, B in itertools.combinations(c, 2):
            e = (at[B], position[len(B) - 1][1][_relabel((A, B), B)])
            edge_mask[e] = edge_mask.get(e, 0) | 1 << i
        perm = [min(B - A) for A, B in zip((frozenset(),) + c, c)]
        inversions = sum(x > y for j, x in enumerate(perm) for y in perm[j + 1:])
        parity.append(-1 if inversions % 2 else 1)
    return tuple(vert_mask), tuple(edge_mask.items()), tuple(parity)


@dataclass
class DistanceResult:
    dx: int | None
    dz: int | None
    exact_x: bool | None  # None: the sector was not searched, or k = 0
    exact_z: bool | None
    certificate_x: int | None = None
    certificate_z: int | None = None
    note: str = ""

    @property
    def exact(self) -> bool:
        return False not in (self.exact_x, self.exact_z)

    def flagged(self) -> str:
        """Per searched sector, "exact" or "budget exceeded" (its d is then
        None); one word when the sectors agree."""
        flags = [(s, "exact" if e else "budget exceeded")
                 for s, e in (("x", self.exact_x), ("z", self.exact_z)) if e is not None]
        if not flags:
            return "undefined (k = 0)"
        if len({f for _, f in flags}) == 1:
            return flags[0][1]
        return ", ".join(f"d_{s} {f}" for s, f in flags)


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


def distance(code: CssCode, budget: int | None = 1 << 26, sector: str = "both") -> DistanceResult:
    """(d_x, d_z) with minimum-weight certificates, from the code alone.

    The check graph's shortest nonzero-class cycle where every qubit lies in
    at most two of the sector's checks (d_z of toric codes, d_x of surface
    ones), else enumeration of ``budget`` supports.  budget=None: the check
    graph only, ValueError for a sector that is not a graph.
    """
    if code.k == 0:
        return DistanceResult(None, None, None, None, note="k = 0: distance undefined")
    found = {s: _min_weight_logical(checks, pairs, code.n, budget, s)
             for s, checks, pairs in (("z", code.hx.rows, code.logical_x),
                                      ("x", code.hz.rows, code.logical_z)) if sector in ("both", s)}
    (dz, cz, ez), (dx, cx, ex) = (found.get(s, (None, None, None)) for s in "zx")
    note = "" if False not in (ex, ez) else f"budget {budget} exceeded; partial search only"
    return DistanceResult(dx, dz, ex, ez, cx, cz, note)


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
    reps, _ = homology.representatives(K, 1)
    if not reps:
        raise ValueError("no nontrivial cycles")
    ecls = BitMatrix(len(reps), K.n_cells(1), reps).transpose().rows
    return _shortest_nontrivial_cycle(K.n_cells(0), K.face[1], ecls)
