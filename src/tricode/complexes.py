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

Every cell index is arithmetic.  Complexes generated from another one
(mapping tori, cyclic covers, subdivisions) number their cells by closed
forms in the base's indices; the hand-described ones (T^3, the surfaces)
number their named cells through a local name -> index dict, in the order
the names are listed.
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
    face arities, face, cycle and label indices out of range (the later
    passes need them in range); the simplicial identities; named cycles z
    with del z != 0.

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
    for key in K.labels:
        if not (type(key) is tuple and len(key) == 2 and all(type(t) is int for t in key)
                and 0 <= key[1] < K.n_cells(key[0])):
            bad.append(f"label key {key!r}: not a (dim, index) pair of a cell")
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


# ---------------------------------------------------------------------------
# T^3 from the unit cube
# ---------------------------------------------------------------------------

def build_torus3() -> DeltaComplex:
    """One-vertex T^3: the ordered unit cube split into 6 tetrahedra, with
    opposite faces identified.

    An n-simplex is an n-step monotone path through the cube; each step is a
    nonempty set of coordinate directions, steps pairwise disjoint.  Deleting
    an interior vertex merges the two adjacent steps.  The n-simplices are
    numbered in the order of their paths' step sequences.
    """
    import itertools

    def faces_of_path(path):
        n = len(path)
        return [path[1:] if i == 0 else path[:-1] if i == n
                else path[: i - 1] + (path[i - 1] | path[i],) + path[i + 1:] for i in range(n + 1)]

    subsets = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(range(3), r)]
    paths_by_dim: list[list[tuple]] = [[()], [], [], []]
    for n in (1, 2, 3):
        for steps in itertools.product(subsets, repeat=n):
            if sum(map(len, steps)) == len(frozenset().union(*steps)):  # pairwise disjoint
                paths_by_dim[n].append(steps)
    at = [{path: i for i, path in enumerate(paths)} for paths in paths_by_dim]
    face = [[()], [(0, 0)] * len(paths_by_dim[1])]
    face += [[tuple(at[n - 1][f] for f in faces_of_path(path)) for path in paths_by_dim[n]]
             for n in (2, 3)]
    labels = {(1, e): "".join("abc"[i] for i in sorted(path[0]))
              for e, path in enumerate(paths_by_dim[1])}
    cycles = {name: (1, (at[1][(frozenset({step}),)],))
              for name, step in (("a", 0), ("b", 1), ("c", 2))}
    for name, (i, j) in (("axb", (0, 1)), ("axc", (0, 2)), ("bxc", (1, 2))):
        cells = (at[2][(frozenset({i}), frozenset({j}))], at[2][(frozenset({j}), frozenset({i}))])
        cycles[name] = (2, tuple(sorted(cells)))
    return DeltaComplex(face, labels, cycles)


# ---------------------------------------------------------------------------
# Genus-g surfaces
# ---------------------------------------------------------------------------


def _surface(g: int, vertices: list[str], edges: dict[str, tuple[str, str]],
             triangles: list[tuple[int, str, str]]) -> DeltaComplex:
    """A genus-g surface cut open along the 4g-gon with boundary word
    a1 b1 a1^-1 b1^-1 ... , whose corners are all the vertex "v".

    Edges a_j and b_j (v -> v) come first, at 2(j-1) and 2(j-1) + 1,
    labelled and named as 1-cycles; then ``edges`` (name -> (d_0, d_1)
    vertex names), in order.  Triangle t is ``triangles[t]`` = (i, lo, hi):
    polygon side i and the edges lo and hi to its two ends, in that order.
    """
    handles = [f"{x}{j}" for j in range(1, g + 1) for x in "ab"]
    edges = dict.fromkeys(handles, ("v", "v")) | edges
    vertex = {nm: i for i, nm in enumerate(vertices)}
    edge = {nm: i for i, nm in enumerate(edges)}
    face2 = [(edge[f"{'abab'[i % 4]}{i // 4 + 1}"],)  # side i runs forward iff i % 4 < 2
             + ((edge[hi], edge[lo]) if i % 4 < 2 else (edge[lo], edge[hi]))
             for i, lo, hi in triangles]
    face = [[()] * len(vertices), [tuple(vertex[v] for v in fs) for fs in edges.values()], face2]
    return DeltaComplex(face, {(1, e): nm for e, nm in enumerate(handles)},
                        {nm: (1, (e,)) for e, nm in enumerate(handles)})


def build_sigma_g(g: int) -> DeltaComplex:
    """One-vertex 4g-gon surface, fan-triangulated from polygon corner 0.

    Boundary word a1 b1 a1^-1 b1^-1 ... ;  b_1 = 2g.  The diagonal from
    corner 0 to corner i is edge D_i; triangle T_i (side i) is 2-cell i - 1.
    """
    if g < 1:
        raise ValueError("genus must be >= 1 (no sphere builder)")
    n_sides = 4 * g

    def from_corner(i: int) -> str:
        # edge from polygon corner 0 to corner i, in its canonical direction
        return "a1" if i == 1 else f"b{g}" if i == n_sides - 1 else f"D{i}"

    return _surface(g, ["v"], {f"D{i}": ("v", "v") for i in range(2, n_sides - 1)},
                    [(i, from_corner(i), from_corner(i + 1)) for i in range(1, n_sides - 1)])


def build_sigma_g_rotsym(g: int) -> DeltaComplex:
    """Genus-g surface triangulated from a centre vertex of the 4g-gon.

    Two vertices, invariant under the handle rotation (corner shift by 4),
    unlike the one-vertex fan.  Use with ``rotation_automorphism``.  The
    centre O is vertex 0, the rim v vertex 1; spoke R_i (O -> corner i) is
    edge 2g + i and triangle U_i (side i) is 2-cell i.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    n_sides = 4 * g
    return _surface(g, ["O", "v"], {f"R{i}": ("v", "O") for i in range(n_sides)},
                    [(i, f"R{i}", f"R{(i + 1) % n_sides}") for i in range(n_sides)])


def rotation_automorphism(K: DeltaComplex, g: int, handles: int = 1) -> SimplicialAutomorphism:
    """Handle rotation a_j -> a_{j+handles}, b_j -> b_{j+handles} of the
    rotation-symmetric genus-g builder (corner shift by 4*handles), read off
    its numbering: a_j, b_j, R_i at 2(j-1), 2(j-1) + 1, 2g + i; U_i at i."""
    n_sides, shift = 4 * g, 4 * handles
    perm1 = [2 * ((e // 2 + handles) % g) + e % 2 for e in range(2 * g)]
    perm1 += [2 * g + (i + shift) % n_sides for i in range(n_sides)]
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

    Layer t holds, in dimension d, the S cells over the (d-1)-simplices
    (s-major, j = 0..d-1), then, for each d-simplex, its H and D_0..D_{d-1}:
    a block of d N_{d-1} + (d+1) N_d cells, N_p = ``K.n_cells(p)``.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    bad = validate_automorphism(K, phi)
    if bad:
        raise ValueError(f"twist incompatible with complex: {bad[:3]}")
    n = K.dims
    block = [d * K.n_cells(d - 1) + (d + 1) * K.n_cells(d) for d in range(n + 2)]

    def H(t: int, p: int, s: int) -> int:
        if t == layers:
            t, s = 0, phi.perm[p][s]
        return t * block[p] + p * K.n_cells(p - 1) + (p + 1) * s

    def D(t: int, p: int, s: int, j: int) -> int:
        return H(t, p, s) + 1 + j

    def S(t: int, p: int, s: int, j: int) -> int:
        return t * block[p + 1] + (p + 1) * s + j

    def d_faces(t, p, s, j):
        out = []
        for i in range(p + 1):
            f = K.face[p][s][i]
            if i <= j:
                out.append(H(t + 1, p - 1, f) if j == 0 else D(t, p - 1, f, j - 1))
            else:
                out.append(H(t, p - 1, f) if j + 1 == p else D(t, p - 1, f, j))
        return tuple(out)

    def s_faces(t, p, s, j):
        out = []
        for i in range(p + 2):
            if i < j:
                out.append(S(t, p - 1, K.face[p][s][i], j - 1))
            elif i == j:
                out.append(H(t + 1, p, s) if j == 0 else D(t, p, s, j - 1))
            elif i == j + 1:
                out.append(H(t, p, s) if j == p else D(t, p, s, j))
            else:
                out.append(S(t, p - 1, K.face[p][s][i - 1], j))
        return tuple(out)

    # cells are appended in index order: within layer t, dimension p + 1
    # gets the S cells over p-simplices before the H and D cells of p + 1
    face: list[list[tuple[int, ...]]] = [[] for _ in range(n + 2)]
    for t in range(layers):
        for p in range(n + 1):
            for s in range(K.n_cells(p)):
                face[p].append(tuple(H(t, p - 1, f) for f in K.face[p][s]))
                face[p].extend(d_faces(t, p, s, j) for j in range(p))
                face[p + 1].extend(s_faces(t, p, s, j) for j in range(p + 1))
    labels = {(d, H(0, d, s)): lab for (d, s), lab in K.labels.items()}
    cycles = {}
    # horizontal copies of named cycles survive at layer 0
    for name, (d, cells) in K.cycles.items():
        cycles[name] = (d, tuple(sorted(H(0, d, c) for c in cells)))
        # the swept cycle (name x c) closes up iff phi fixes the chain
        if all(phi.perm[d][c] in cells for c in cells):
            swept = [S(t, d, c, j) for t in range(layers) for c in cells for j in range(d + 1)]
            cycles[f"{name}xc"] = (d + 1, tuple(sorted(swept)))
    # the vertical cycle c: follow the phi-orbit of vertex 0
    orbit = [0]
    while (v := phi.perm[0][orbit[-1]]) != 0:
        orbit.append(v)
    cycles["c"] = (1, tuple(sorted(S(t, 0, v, 0) for v in orbit for t in range(layers))))
    if n >= 1:
        cycles["fiber"] = (n, tuple(sorted(H(0, n, s) for s in range(K.n_cells(n)))))
    if n >= 1 and all(phi.perm[p][s] == s for p in range(n + 1) for s in range(K.n_cells(p))):
        labels[(1, S(0, 0, 0, 0))] = "c"
    return DeltaComplex(face, labels, cycles)


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

    The p-simplex s on sheet t is cell t N_p + s, N_p = ``K.n_cells(p)``.
    Face i of that cell is face i of s on sheet t + c(front edge of s) mod m
    for i = 0, and on sheet t otherwise; the deck rotation is
    i -> (i + N_p) mod m N_p.  The labels of K go to sheet 0, with "~0".
    """
    if m < 1:
        raise ValueError(f"a cyclic cover needs m >= 1 sheets, not {m}")
    face = [[()] * (m * K.n_cells(0))]
    for p in range(1, K.dims + 1):
        below = K.n_cells(p - 1)
        shifts = [cochain.get(K.front(p, s, 1), 0) for s in range(K.n_cells(p))]
        face.append([(((t + c) % m) * below + fs[0],) + tuple(t * below + f for f in fs[1:])
                     for t in range(m) for fs, c in zip(K.face[p], shifts)])
    labels = {(d, s): f"{lab}~0" for (d, s), lab in K.labels.items()}
    try:
        cover = DeltaComplex(face, labels)
    except ValueError as exc:
        raise ValueError(f"cochain is not a cocycle mod {m}: {exc}") from None
    deck = [[(i + N) % (m * N) for i in range(m * N)] for N in K.counts]
    return cover, SimplicialAutomorphism(deck)


def sheet_projection(K: DeltaComplex, cover: DeltaComplex, m: int) -> list[list[int]]:
    """Per-dimension map cover-cell -> base-cell for a cyclic_cover output:
    cell t N_p + s lies over s, so the base cell is i mod N_p.
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
