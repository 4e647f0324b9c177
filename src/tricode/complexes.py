"""Delta-complexes (ordered-simplex cell complexes) and 3-manifold builders.

A ``DeltaComplex`` stores, for every n-simplex, the indices of its n+1
faces; ``face[n][s][i]`` is the (n-1)-simplex obtained by deleting vertex
position i.  Identifications are allowed (one-vertex models), so builders
stay desk-scale.  A complex is checked once, when it is constructed
(``validate``): face indices in range, the simplicial identities
d_i d_j = d_{j-1} d_i (i < j), which imply del del = 0 over GF(2), and
closed named cycles.  It is frozen, so nothing downstream checks again.

Builders label distinguished edges and record named cycles (a, b, c,
products with the circle direction, the fibre surface) so downstream gate
reports can speak in terms of those cycles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

Cell = tuple[int, int]  # (dimension, index)


@dataclass(frozen=True)
class DeltaComplex:
    """ValueError at construction unless ``validate`` finds nothing: the
    first three violations, then how many more."""

    # face[0] is a list of () placeholders, one per vertex
    face: list[list[tuple[int, ...]]]
    labels: dict[Cell, str] = field(default_factory=dict)
    # name -> (dim, sorted tuple of cell indices), each a GF(2) cycle
    cycles: dict[str, tuple[int, tuple[int, ...]]] = field(default_factory=dict)

    def __post_init__(self):
        if bad := validate(self):
            raise ValueError("; ".join(bad[:3]) + (f"; and {len(bad) - 3} more" if bad[3:] else ""))

    @property
    def dims(self) -> int:
        return len(self.face) - 1

    @property
    def counts(self) -> list[int]:
        return [len(f) for f in self.face]

    def n_cells(self, n: int) -> int:
        if n < 0 or n > self.dims:
            return 0
        return len(self.face[n])

    def iterated_face(self, n: int, s: int, keep: tuple[int, ...]) -> Cell:
        """The face of an n-simplex spanned by vertex positions ``keep``."""
        drop = [i for i in range(n + 1) if i not in keep]
        d, idx = n, s
        for i in sorted(drop, reverse=True):
            idx = self.face[d][idx][i]
            d -= 1
        return (d, idx)

    def front(self, n: int, s: int, p: int) -> int:
        """Index of the front p-face [v_0 .. v_p] (iterated top-index faces)."""
        d, idx = n, s
        while d > p:
            idx = self.face[d][idx][d]
            d -= 1
        return idx

    def back(self, n: int, s: int, q: int) -> int:
        """Index of the back q-face [v_{n-q} .. v_n] (iterated d_0)."""
        d, idx = n, s
        while d > q:
            idx = self.face[d][idx][0]
            d -= 1
        return idx

    def label(self, n: int, s: int) -> str:
        return self.labels.get((n, s), f"{n}.{s}")

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * c for n, c in enumerate(self.counts))


def validate(K: DeltaComplex) -> list[str]:
    """All invariant violations (empty list == well-formed), in three passes:
    face arities and face and cycle indices out of range (the later passes
    need them in range); the simplicial identities; named cycles z with
    del z != 0.

    The identities imply del del = 0 over GF(2): in del del s the term
    d_i d_j s with i < j cancels d_{j-1} d_i s, and (i, j) -> (j-1, i) is a
    bijection onto the pairs (i', j') with i' >= j'."""
    bad: list[str] = []
    for n in range(K.dims + 1):
        below, arity = K.n_cells(n - 1), n + 1 if n else 0
        for s, fs in enumerate(K.face[n]):
            if len(fs) != arity:
                bad.append(f"{n}-simplex {s}: expected {arity} faces, got {len(fs)}")
                continue
            for i, f in enumerate(fs):
                if type(f) is not int or not 0 <= f < below:
                    bad.append(f"{n}-simplex {s}: face {i} index {f} out of range")
    for name, (dim, cells) in K.cycles.items():
        ok = type(dim) is int and 0 <= dim <= K.dims
        if not ok or any(type(c) is not int or not 0 <= c < K.n_cells(dim) for c in cells):
            bad.append(f"cycle {name!r}: cell index out of range")
    if bad:
        return bad
    for n in range(2, K.dims + 1):
        below = K.face[n - 1]
        pairs = [(i, j) for j in range(1, n + 1) for i in range(j)]
        for s, fs in enumerate(K.face[n]):
            for i, j in pairs:  # d_i d_j = d_{j-1} d_i for i < j
                if below[fs[j]][i] != below[fs[i]][j - 1]:
                    bad.append(f"{n}-simplex {s}: d_{i} d_{j} != d_{j - 1} d_{i}")
    for name, (dim, cells) in K.cycles.items():
        acc = 0
        for c in set(cells):
            for f in K.face[dim][c]:
                acc ^= 1 << f
        if acc:
            bad.append(f"cycle {name!r}: not closed, del z != 0")
    return bad


def is_closed(K: DeltaComplex) -> bool:
    """True if the sum of all top simplices is a GF(2) cycle (fundamental class)."""
    if K.dims == 0:
        return True
    acc = [0] * K.n_cells(K.dims - 1)
    for fs in K.face[K.dims]:
        for f in fs:
            acc[f] ^= 1
    return not any(acc)


@dataclass
class SimplicialAutomorphism:
    """Per-dimension permutation of simplices commuting with face maps."""

    perm: list[list[int]]

    @classmethod
    def identity(cls, K: DeltaComplex) -> "SimplicialAutomorphism":
        return cls([list(range(c)) for c in K.counts])


def validate_automorphism(K: DeltaComplex, phi: SimplicialAutomorphism) -> list[str]:
    bad = []
    if len(phi.perm) != K.dims + 1:
        return [f"automorphism covers {len(phi.perm)} dimensions, complex has {K.dims + 1}"]
    for n, p in enumerate(phi.perm):
        if sorted(p) != list(range(K.n_cells(n))):
            bad.append(f"dimension {n}: not a permutation")
    if bad:
        return bad
    for n in range(1, K.dims + 1):
        for s in range(K.n_cells(n)):
            for i, f in enumerate(K.face[n][s]):
                if phi.perm[n - 1][f] != K.face[n][phi.perm[n][s]][i]:
                    bad.append(f"face map conflict at {n}-simplex {s}, face {i}")
    return bad


class _Builder:
    """Accumulates simplices keyed by hashable descriptors, then freezes."""

    def __init__(self, dims: int):
        self.dims = dims
        self.index: list[dict] = [dict() for _ in range(dims + 1)]
        self.faces: list[dict] = [dict() for _ in range(dims + 1)]

    def add(self, dim: int, key, face_keys=()) -> None:
        if key in self.index[dim]:
            return
        self.index[dim][key] = len(self.index[dim])
        self.faces[dim][key] = tuple(face_keys)

    def idx(self, dim: int, key) -> int:
        return self.index[dim][key]

    def freeze(self, labels: dict | None = None, cycles: dict | None = None) -> DeltaComplex:
        """The complex, with labels and named cycles keyed by final indices."""
        face: list[list[tuple[int, ...]]] = [[() for _ in self.index[0]]]
        for n in range(1, self.dims + 1):
            table = [()] * len(self.index[n])
            for key, i in self.index[n].items():
                table[i] = tuple(self.index[n - 1][f] for f in self.faces[n][key])
            face.append(table)
        return DeltaComplex(face, labels or {}, cycles or {})


# ---------------------------------------------------------------------------
# T^3 from the unit cube
# ---------------------------------------------------------------------------

def build_torus3() -> DeltaComplex:
    """One-vertex T^3: the ordered unit cube split into 6 tetrahedra, with
    opposite faces identified.

    An n-simplex is an n-step monotone path through the cube; each step is a
    nonempty set of coordinate directions, steps pairwise disjoint.  Deleting
    an interior vertex merges the two adjacent steps.
    """
    import itertools

    b = _Builder(3)
    b.add(0, ())

    def faces_of_path(path):
        out = []
        for i in range(len(path) + 1):
            if i == 0:
                out.append(path[1:])
            elif i == len(path):
                out.append(path[:-1])
            else:
                out.append(path[: i - 1] + (path[i - 1] | path[i],) + path[i + 1:])
        return out

    subsets = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(range(3), r)]
    paths_by_dim: list[list[tuple]] = [[()], [], [], []]
    for n in (1, 2, 3):
        for steps in itertools.product(subsets, repeat=n):
            if sum(map(len, steps)) == len(frozenset().union(*steps)):  # pairwise disjoint
                paths_by_dim[n].append(steps)
    for n in (1, 2, 3):
        for path in paths_by_dim[n]:
            b.add(n, path, faces_of_path(path) if n > 1 else ((), ()))
    labels = {(1, b.idx(1, path)): "".join("abc"[i] for i in sorted(path[0]))
              for path in paths_by_dim[1]}
    cycles = {name: (1, (b.idx(1, (frozenset({step}),)),))
              for name, step in (("a", 0), ("b", 1), ("c", 2))}
    for name, (i, j) in (("axb", (0, 1)), ("axc", (0, 2)), ("bxc", (1, 2))):
        cells = (
            b.idx(2, (frozenset({i}), frozenset({j}))),
            b.idx(2, (frozenset({j}), frozenset({i}))),
        )
        cycles[name] = (2, tuple(sorted(cells)))
    return b.freeze(labels, cycles)


# ---------------------------------------------------------------------------
# Genus-g surfaces
# ---------------------------------------------------------------------------


def _side_info(i: int) -> tuple[str, bool]:
    """Edge name and direction of polygon side i of the word a1 b1 a1' b1' ..."""
    j = i // 4 + 1
    r = i % 4
    return (f"a{j}" if r in (0, 2) else f"b{j}", r < 2)


def _handle_edges(b: _Builder, g: int) -> DeltaComplex:
    """Freeze a genus-g surface builder with its edges a_j and b_j labelled
    and named as 1-cycles."""
    edges = [(nm, b.idx(1, nm)) for j in range(1, g + 1) for nm in (f"a{j}", f"b{j}")]
    return b.freeze({(1, e): nm for nm, e in edges}, {nm: (1, (e,)) for nm, e in edges})


def build_sigma_g(g: int) -> DeltaComplex:
    """One-vertex 4g-gon surface, fan-triangulated from polygon corner 0.

    Boundary word a1 b1 a1^-1 b1^-1 ... ;  b_1 = 2g.
    """
    if g < 1:
        raise ValueError("genus must be >= 1 (no sphere builder)")
    n_sides = 4 * g
    b = _Builder(2)
    b.add(0, "v")
    for j in range(1, g + 1):
        b.add(1, f"a{j}", ("v", "v"))
        b.add(1, f"b{j}", ("v", "v"))
    for i in range(2, n_sides - 1):
        b.add(1, f"D{i}", ("v", "v"))

    def from_corner(i: int) -> str:
        # edge from polygon corner 0 to corner i, in its canonical direction
        if i == 1:
            return "a1"
        if i == n_sides - 1:
            return f"b{g}"
        return f"D{i}"

    for i in range(1, n_sides - 1):
        name, forward = _side_info(i)
        lo, hi = from_corner(i), from_corner(i + 1)
        if forward:
            b.add(2, f"T{i}", (name, hi, lo))
        else:
            b.add(2, f"T{i}", (name, lo, hi))
    return _handle_edges(b, g)


def build_sigma_g_rotsym(g: int) -> DeltaComplex:
    """Genus-g surface triangulated from a centre vertex of the 4g-gon.

    Two vertices, invariant under the handle rotation (corner shift by 4),
    unlike the one-vertex fan.  Use with ``rotation_automorphism``.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    n_sides = 4 * g
    b = _Builder(2)
    b.add(0, "O")
    b.add(0, "v")
    # sides connect rim points (all identified to "v"); spokes run O -> rim
    for j in range(1, g + 1):
        b.add(1, f"a{j}", ("v", "v"))
        b.add(1, f"b{j}", ("v", "v"))
    for i in range(n_sides):
        b.add(1, f"R{i}", ("v", "O"))
    for i in range(n_sides):
        name, forward = _side_info(i)
        lo, hi = f"R{i}", f"R{(i + 1) % n_sides}"
        if forward:
            b.add(2, f"U{i}", (name, hi, lo))
        else:
            b.add(2, f"U{i}", (name, lo, hi))
    return _handle_edges(b, g)


def rotation_automorphism(K: DeltaComplex, g: int, handles: int = 1) -> SimplicialAutomorphism:
    """Handle rotation a_j -> a_{j+handles}, b_j -> b_{j+handles} of the
    rotation-symmetric genus-g builder (corner shift by 4*handles)."""
    n_sides = 4 * g
    shift = 4 * handles

    def edge_map(nm: str) -> str:
        if nm.startswith("R"):
            return f"R{(int(nm[1:]) + shift) % n_sides}"
        j = int(nm[1:])
        return f"{nm[0]}{(j - 1 + handles) % g + 1}"

    # reconstruct descriptor names for unlabelled edges (spokes) by position:
    # builder added a/b edges first (2g of them), then spokes R0..R{4g-1}
    rev = [K.labels.get((1, s)) or f"R{s - 2 * g}" for s in range(K.n_cells(1))]
    by_label = {nm: s for s, nm in enumerate(rev)}
    perm1 = [by_label[edge_map(rev[s])] for s in range(K.n_cells(1))]
    perm2 = [(s + shift) % n_sides for s in range(K.n_cells(2))]
    phi = SimplicialAutomorphism([list(range(K.n_cells(0))), perm1, perm2])
    bad = validate_automorphism(K, phi)
    if bad:
        raise ValueError(f"rotation is not simplicial here: {bad[:3]}")
    return phi


# ---------------------------------------------------------------------------
# Products with a circle and mapping tori (prism layers)
# ---------------------------------------------------------------------------


def mapping_torus(K: DeltaComplex, phi: SimplicialAutomorphism, layers: int = 1) -> DeltaComplex:
    """K x [0, layers] in prism layers, top glued to bottom through phi.

    Cells over a p-simplex s in layer t:
      H(t,s)    horizontal copy                                (dim p)
      D(t,s,j)  diagonal: vertices 0..j at t, j+1..p at t+1    (dim p)
      S(t,s,j)  prism simplex: vertex j repeated at t and t+1  (dim p+1)
    The level-``layers`` horizontal copies are identified with H(0, phi(s)).
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    bad = validate_automorphism(K, phi)
    if bad:
        raise ValueError(f"twist incompatible with complex: {bad[:3]}")
    n = K.dims
    b = _Builder(n + 1)

    def wrap_h(t: int, p: int, s: int):
        if t == layers:
            return ("H", 0, p, phi.perm[p][s])
        return ("H", t, p, s)

    def h_faces(t, p, s):
        return tuple(wrap_h(t, p - 1, f) for f in K.face[p][s])

    def d_faces(t, p, s, j):
        out = []
        for i in range(p + 1):
            f = K.face[p][s][i]
            if i <= j:
                out.append(wrap_h(t + 1, p - 1, f) if j == 0 else ("D", t, p - 1, f, j - 1))
            else:
                out.append(wrap_h(t, p - 1, f) if j + 1 == p else ("D", t, p - 1, f, j))
        return tuple(out)

    def s_faces(t, p, s, j):
        out = []
        for i in range(p + 2):
            if i < j:
                out.append(("S", t, p - 1, K.face[p][s][i], j - 1))
            elif i == j:
                out.append(wrap_h(t + 1, p, s) if j == 0 else ("D", t, p, s, j - 1))
            elif i == j + 1:
                out.append(wrap_h(t, p, s) if j == p else ("D", t, p, s, j))
            else:
                out.append(("S", t, p - 1, K.face[p][s][i - 1], j))
        return tuple(out)

    for t in range(layers):
        for p in range(n + 1):
            for s in range(K.n_cells(p)):
                if p == 0:
                    b.add(0, ("H", t, 0, s))
                else:
                    b.add(p, ("H", t, p, s), h_faces(t, p, s))
                    for j in range(p):
                        b.add(p, ("D", t, p, s, j), d_faces(t, p, s, j))
                for j in range(p + 1):
                    b.add(p + 1, ("S", t, p, s, j), s_faces(t, p, s, j))
    identity = all(phi.perm[p][s] == s for p in range(n + 1) for s in range(K.n_cells(p)))
    labels = {(d, b.idx(d, ("H", 0, d, s))): lab for (d, s), lab in K.labels.items()}
    cycles = {}
    # horizontal copies of named cycles survive at layer 0
    for name, (d, cells) in K.cycles.items():
        cycles[name] = (d, tuple(sorted(b.idx(d, ("H", 0, d, c)) for c in cells)))
        # the swept cycle (name x c) closes up iff phi fixes the chain
        if all(phi.perm[d][c] in cells for c in cells):
            swept = [
                b.idx(d + 1, ("S", t, d, c, j))
                for t in range(layers)
                for c in cells
                for j in range(d + 1)
            ]
            cycles[f"{name}xc"] = (d + 1, tuple(sorted(swept)))
    # the vertical cycle c: follow the phi-orbit of vertex 0
    vert: list[int] = []
    v = 0
    while True:
        vert.extend(b.idx(1, ("S", t, 0, v, 0)) for t in range(layers))
        v = phi.perm[0][v]
        if v == 0:
            break
    cycles["c"] = (1, tuple(sorted(vert)))
    if n >= 1:
        fibre = tuple(sorted(b.idx(n, ("H", 0, n, s)) for s in range(K.n_cells(n))))
        cycles["fiber"] = (n, fibre)
    if identity and n >= 1:
        labels[(1, b.idx(1, ("S", 0, 0, 0, 0)))] = "c"
    return b.freeze(labels, cycles)


def product_with_circle(K: DeltaComplex, layers: int = 1) -> DeltaComplex:
    """Triangulated K x S^1 with the given number of prism layers."""
    return mapping_torus(K, SimplicialAutomorphism.identity(K), layers)


def build_point() -> DeltaComplex:
    return DeltaComplex([[()]])


# ---------------------------------------------------------------------------
# Barycentric subdivision (flag complex)
# ---------------------------------------------------------------------------


@dataclass
class Subdivision:
    complex: DeltaComplex


@functools.cache
def _flag_chains(dims: int):
    """(subsets, chains, position) for the simplices of a subdivision, built
    once per dimension and shared: callers must not change ``position``.

    subsets[p]: the nonempty subsets of {0..p}, by size and then
    lexicographically.  chains[p][n]: the chains A_0 < ... < A_n = {0..p} in
    lexicographic order of that list, the n-simplices over one p-cell.
    position[p][n]: a chain's index in chains[p][n].
    """
    import itertools

    subsets, chains = [], []
    for p in range(dims + 1):
        subsets.append(tuple(frozenset(c) for r in range(1, p + 2)
                             for c in itertools.combinations(range(p + 1), r)))
        chains.append(tuple(tuple(c + (subsets[p][-1],)
                                  for c in itertools.combinations(subsets[p][:-1], n)
                                  if all(a < b for a, b in zip(c, c[1:])))
                            for n in range(p + 1)))
    position = [[{c: i for i, c in enumerate(cs)} for cs in chains_p] for chains_p in chains]
    return tuple(subsets), tuple(chains), position


def _flag_offsets(K: DeltaComplex, chains) -> list[list[int]]:
    """offset[n][p]: index of the first n-simplex of the subdivision over the
    p-cells of K (p >= n), whose simplices follow cell by cell in the order of
    chains[p][n]; offset[n][K.dims + 1] is the number of n-simplices."""
    dims = K.dims
    offset = [[0] * (dims + 2) for _ in range(dims + 1)]
    for n in range(dims + 1):
        for p in range(n, dims + 1):
            offset[n][p + 1] = offset[n][p] + K.n_cells(p) * len(chains[p][n])
    return offset


def _relabel(chain, top: frozenset) -> tuple[frozenset, ...]:
    """The subsets of ``chain`` in the vertex positions of the face ``top``."""
    at = {v: k for k, v in enumerate(sorted(top))}
    return tuple(frozenset(at[v] for v in A) for A in chain)


def barycentric_subdivide(K: DeltaComplex) -> Subdivision:
    """Subdivision whose vertices are K's cells, coloured by dimension.

    An n-simplex is a flag: a cell tau of K of dimension p together with a
    chain of vertex-position subsets A_0 < A_1 < ... < A_n = {0..p}.  The
    vertex over tau is labelled ``bary:`` and tau's label.

    The n-simplices are numbered by p, then tau, then the chain's position in
    ``chains[p][n]`` (``_flag_offsets``), so every face index is arithmetic:
    face i < n drops A_i (same cell), face n is the flag of the cell spanned
    by A_{n-1}, its chain relabelled.  Chains, their face positions and the
    cells spanned by each vertex subset are computed once, not per simplex.
    """
    dims = K.dims
    subsets, chains, position = _flag_chains(dims)
    offset = _flag_offsets(K, chains)
    # per n-chain, n >= 1: positions of faces i < n, A_{n-1}, position of face n
    templates = [[[] for _ in range(p + 1)] for p in range(dims + 1)]
    for p in range(dims + 1):
        for n in range(1, p + 1):
            for c in chains[p][n]:
                templates[p][n].append((
                    tuple(position[p][n - 1][c[:i] + c[i + 1:]] for i in range(n)),
                    c[n - 1], position[len(c[n - 1]) - 1][n - 1][_relabel(c[:n], c[n - 1])]))

    face: list[list[tuple[int, ...]]] = [[] for _ in range(dims + 1)]
    cells = [(p, s) for p in range(dims + 1) for s in range(K.n_cells(p))]
    for p, s in cells:
        cell_of = {A: K.iterated_face(p, s, tuple(sorted(A))) for A in subsets[p]}
        for n in range(1, p + 1):
            same = offset[n - 1][p] + s * len(chains[p][n - 1])
            for subs, top, newpos in templates[p][n]:
                d, idx = cell_of[top]
                face[n].append(tuple(same + j for j in subs) + (
                    offset[n - 1][d] + idx * len(chains[d][n - 1]) + newpos,))
    face[0] = [()] * len(cells)  # the vertex over each cell of K, in the order of cells
    labels = {(0, i): f"bary:{K.label(p, s)}" for i, (p, s) in enumerate(cells)}
    return Subdivision(DeltaComplex(face, labels))


# ---------------------------------------------------------------------------
# Cyclic covers (free deck actions for fibre-bundle twists)
# ---------------------------------------------------------------------------


def cyclic_cover(K: DeltaComplex, cochain: dict[int, int], m: int) -> tuple[DeltaComplex, SimplicialAutomorphism]:
    """m-sheeted cyclic cover classified by a mod-m 1-cocycle (values per edge).

    The sheet of a simplex is the sheet of its leading vertex; d_0 shifts the
    sheet by the cocycle value on the front edge.  Fails validation iff the
    cochain is not a signed cocycle mod m.  Returns the cover and its deck
    rotation (sheet + 1), a free automorphism of order m.
    """
    b = _Builder(K.dims)

    def key(p, s, sheet):
        return (p, s, sheet % m)

    for sheet in range(m):
        for p in range(K.dims + 1):
            for s in range(K.n_cells(p)):
                if p == 0:
                    b.add(0, key(0, s, sheet))
                    continue
                shift = cochain.get(K.front(p, s, 1), 0)
                b.add(p, key(p, s, sheet), tuple(key(p - 1, f, sheet + shift if i == 0 else sheet)
                                                 for i, f in enumerate(K.face[p][s])))
    labels = {(d, b.idx(d, key(d, s, 0))): f"{lab}~0" for (d, s), lab in K.labels.items()}
    try:
        cover = b.freeze(labels)
    except ValueError as exc:
        raise ValueError(f"cochain is not a cocycle mod {m}: {exc}") from None
    perm = [
        [b.idx(p, key(p, s, sheet + 1)) for (p_, s, sheet) in b.index[p]]
        for p in range(K.dims + 1)
    ]
    return cover, SimplicialAutomorphism(perm)


def sheet_projection(K: DeltaComplex, cover: DeltaComplex, m: int) -> list[list[int]]:
    """Per-dimension map cover-cell -> base-cell for a cyclic_cover output.

    Relies on the cover builder's deterministic ordering (base cells cycle
    fastest within each sheet block).
    """
    return [[i % K.n_cells(p) for i in range(cover.n_cells(p))] for p in range(K.dims + 1)]


def orientation_signs(K: DeltaComplex) -> list[int] | None:
    """Coherent orientation of the top cells: signs eps with
    sum eps_t [t] an integer cycle.  None when the complex is non-orientable
    (or the signed incidences cannot be balanced)."""
    d = K.dims
    if d == 0:
        return [1] * K.n_cells(0)
    incid: dict[int, list[tuple[int, int]]] = {}
    for t in range(K.n_cells(d)):
        for i, f in enumerate(K.face[d][t]):
            incid.setdefault(f, []).append((t, -1 if i % 2 else 1))
    eps = [0] * K.n_cells(d)
    for start in range(K.n_cells(d)):
        if eps[start]:
            continue
        eps[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for f in K.face[d][t]:
                entries = incid[f]
                if len(entries) != 2:
                    return None
                (ta, sa), (tb, sb) = entries
                if ta == tb:
                    if sa + sb != 0:
                        return None
                    continue
                partner, sp, smine = (tb, sb, sa) if ta == t else (ta, sa, sb)
                want = -eps[t] * smine * sp
                if eps[partner] == 0:
                    eps[partner] = want
                    stack.append(partner)
                elif eps[partner] != want:
                    return None
    # final verification of every face balance
    for f, entries in incid.items():
        if sum(eps[t] * s for t, s in entries) != 0:
            return None
    return eps
