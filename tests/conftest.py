import itertools
import os
import sys
from dataclasses import dataclass

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tricode import complexes, homology
from tricode.cup import spine_edges
from tricode.gates import DiagonalCircuit, PhasePolynomial
from tricode.gf2 import echelon, support
from tricode.mcg import ThickenedTwistAction


@pytest.fixture(scope="session")
def t3():
    return complexes.build_torus3()


@pytest.fixture(scope="session")
def sigma2():
    return complexes.build_sigma_g(2)


@pytest.fixture(scope="session")
def s2xs1():
    return complexes.product_with_circle(complexes.build_sigma_g(2), 1)


@pytest.fixture(scope="session")
def t2xs1_2layers():
    return complexes.product_with_circle(complexes.build_sigma_g(1), 2)


def tetrahedron_boundary() -> complexes.DeltaComplex:
    """The 2-sphere as the boundary of a 3-simplex (no identifications)."""
    verts = list(range(4))
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    eidx = {e: i for i, e in enumerate(edges)}
    tris = [(i, j, k) for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)]
    face1 = [(e[1], e[0]) for e in edges]  # d_0 = [v1], d_1 = [v0]
    face2 = [(eidx[(j, k)], eidx[(i, k)], eidx[(i, j)]) for (i, j, k) in tris]
    return complexes.DeltaComplex([[() for _ in verts], list(face1), list(face2)])


def single_triangle() -> complexes.DeltaComplex:
    face1 = [(1, 0), (2, 0), (2, 1)]  # edges 01, 02, 12 as (d0, d1)
    face2 = [(2, 1, 0)]  # triangle [v0 v1 v2]: d0 = [12], d1 = [02], d2 = [01]
    return complexes.DeltaComplex([[(), (), ()], face1, face2])


def path_graph(n: int) -> complexes.DeltaComplex:
    """n edges in a line, n+1 vertices."""
    face1 = [(i + 1, i) for i in range(n)]
    return complexes.DeltaComplex([[() for _ in range(n + 1)], face1])


# References the tests compare the package against; nothing in the package
# needs them.


def del_del_nonzero(face, n: int) -> list[int]:
    """The n-simplices s of the face lists ``face`` with del del s != 0 over
    GF(2): some (n-2)-simplex occurs an odd number of times among the faces
    of the faces of s.  Order-blind, unlike the simplicial identities that
    ``DeltaComplex`` checks, which imply it."""
    below, out = face[n - 1], []
    for s, fs in enumerate(face[n]):
        acc = 0
        for f in fs:
            for g in below[f]:
                acc ^= 1 << g
        if acc:
            out.append(s)
    return out


def row_reduce(rows) -> tuple[list[int], list[int]]:
    """Reduced row echelon basis of the span plus pivot columns: the forward
    echelon, then back substitution clearing every other pivot column,
    highest pivot first.  Reducing twice equals reducing once."""
    by_pivot = echelon(rows)
    pivots = sorted(by_pivot)
    above = 0  # pivot columns already reduced
    for p in reversed(pivots):
        r = by_pivot[p]
        hit = r & above
        while hit:
            low = hit & -hit
            r ^= by_pivot[low.bit_length() - 1]
            hit ^= low
        by_pivot[p] = r
        above |= 1 << p
    return [by_pivot[p] for p in pivots], pivots


def kernel_from_rref(basis: list[int], pivots: list[int], ncols: int) -> list[int]:
    """Null space basis of a matrix with RREF (basis, pivots): one vector per
    free column j < ncols, in increasing j, with bit p set when the RREF row
    with pivot p has bit j (and bit j itself)."""
    free = (1 << ncols) - 1
    for p in pivots:
        free &= ~(1 << p)
    vecs = {j: 1 << j for j in support(free)}
    for row, p in zip(basis, pivots):
        for j in support(row & free):
            vecs[j] |= 1 << p
    return list(vecs.values())


def chain_spaces(K, n: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """(cycles, boundaries, cocycles, coboundaries) in degree n: the full
    kernels of del_n and del_{n+1}^T and the RREF bases of their row spaces,
    from one RREF of each."""
    c = K.n_cells(n)
    down = row_reduce(homology.boundary_matrix(K, n).rows)
    up = row_reduce(homology.boundary_matrix(K, n + 1).transpose().rows)
    return kernel_from_rref(*down, c), up[0], kernel_from_rref(*up, c), down[0]


def gf2_product(a_rows: list[int], b_rows: list[int]) -> list[int]:
    """A B^T over GF(2) as packed rows: bit j of row i is the parity of the
    overlap of a_i and b_j, counted qubit by qubit, so only pairs that share
    a qubit are visited.  The package has no product of its own."""
    at: dict[int, list[int]] = {}  # qubit -> the rows of B on it
    for j, b in enumerate(b_rows):
        for q in support(b):
            at.setdefault(q, []).append(j)
    out = []
    for a in a_rows:
        odd = 0
        for q in support(a):
            for j in at.get(q, ()):
                odd ^= 1 << j
        out.append(odd)
    return out


def check_logicals(code) -> list[str]:
    """Violations of the conditions of a CSS code and its logical operators:
    hx hz^T = 0, each logical commutes with the other type's stabilizers, the
    logicals pair to the identity and k = n - rank hx - rank hz."""
    bad = []
    if any(gf2_product(code.hx.rows, code.hz.rows)):
        bad.append("an X stabilizer anticommutes with a Z stabilizer")
    if any(gf2_product(code.hz.rows, code.logical_x)):
        bad.append("a logical X anticommutes with a Z stabilizer")
    if any(gf2_product(code.hx.rows, code.logical_z)):
        bad.append("a logical Z anticommutes with an X stabilizer")
    if gf2_product(code.logical_x, code.logical_z) != [1 << i for i in range(code.k)]:
        bad.append("the logicals do not pair to the identity")
    if code.n - code.hx.rank() - code.hz.rank() != code.k:
        bad.append("k differs from n - rank hx - rank hz")
    return bad


def unchecked_membrane_circuit(K, z2: int, copies: tuple[int, int]) -> DiagonalCircuit:
    """``gates.cz_membrane_circuit`` without its 2-cycle check, so that a
    membrane that is not a cycle still gives its CZ circuit."""
    i, j = copies
    E = K.n_cells(1)
    spine = spine_edges(K, 2)
    gates = [("CZ", ((i - 1) * E + spine[s][0], (j - 1) * E + spine[s][1])) for s in support(z2)]
    return DiagonalCircuit(3 * E, gates).canonical()


@dataclass(frozen=True)
class Cochain:
    dim: int
    values: int  # bit s = value on n-simplex s

    def __call__(self, s: int) -> int:
        return (self.values >> s) & 1


def cup(K, a: Cochain, b: Cochain) -> Cochain:
    """(a cup b)(sigma) = a(front p-face) * b(back q-face), cell by cell: the
    nested evaluation that ``cup.cup_integrals`` is compared against."""
    p, q = a.dim, b.dim
    n = p + q
    if n > K.dims:
        raise ValueError(f"cup degree {n} exceeds complex dimension {K.dims}")
    out = 0
    for s in range(K.n_cells(n)):
        if a(K.front(n, s, p)) and b(K.back(n, s, q)):
            out |= 1 << s
    return Cochain(n, out)


def integrate(K, c: Cochain) -> int:
    """Pairing with the fundamental class: sum over all top simplices mod 2."""
    if c.dim != K.dims:
        raise ValueError("can only integrate a top-dimensional cochain")
    return c.values.bit_count() & 1


def triple_cup_integral(K, a: Cochain, b: Cochain, c: Cochain) -> int:
    """integral over K of a cup b cup c for 1-cochains on a 3-complex, one
    product per 3-simplex on its spine: a([v0 v1]) b([v1 v2]) c([v2 v3])."""
    if K.dims != 3:
        raise ValueError("triple cup integral needs a 3-complex")
    if (a.dim, b.dim, c.dim) != (1, 1, 1):
        raise ValueError("triple cup integral takes three 1-cochains")
    total = 0
    for e1, e2, e3 in spine_edges(K, 3):
        total ^= a(e1) & b(e2) & c(e3)
    return total


def named_dual_cocycles(K) -> dict[str, Cochain]:
    """1-cocycles dual to the builder's named 1-cycles (pairing = identity)."""
    names, _, duals = homology.logical_basis(K)
    if names is None:
        raise ValueError("builder cycles do not form a basis of H_1")
    return {nm: Cochain(1, d) for nm, d in zip(names, duals)}


def coboundary(K, c):
    """(dc)(sigma) = sum of c over the faces of sigma, mod 2: the transpose
    of the boundary map."""
    return Cochain(c.dim + 1, homology.boundary_matrix(K, c.dim + 1).transpose().matvec(c.values))


def leibniz_defect(K, a, b) -> int:
    """d(a cup b) + da cup b + a cup db, which must vanish identically."""
    lhs = coboundary(K, cup(K, a, b)).values
    rhs = cup(K, coboundary(K, a), b).values ^ cup(K, a, coboundary(K, b)).values
    return lhs ^ rhs


def cnot_pair_between_handles(i: int, g: int):
    """The expected Z2-linear map of CNOT((a_i x c;1),(b_{i+1} x c;1)) .
    CNOT((a_{i+1} x c;1),(b_i x c;1)) on the membrane basis."""
    cols = [1 << t for t in range(2 * g + 1)]
    cols[i - 1] ^= 1 << (g + i)  # a_i x c -> a_i x c + b_{i+1} x c
    cols[i] ^= 1 << (g + i - 1)  # a_{i+1} x c -> a_{i+1} x c + b_i x c
    return ThickenedTwistAction(g, cols, [(f"a{i}xc", f"b{i + 1}xc"), (f"a{i + 1}xc", f"b{i}xc")])


def degree(f) -> int:
    """Degree of a phase polynomial (0 for a constant)."""
    return max((len(S) for S in f.coeffs), default=0)


def shifted(f, x: int):
    """g(z) = f(z + x), expanded multilinearly (z_i -> 1 - z_i on supp x)."""
    out = PhasePolynomial(f.n)
    for S, c in f.coeffs.items():
        flip = sorted(i for i in S if (x >> i) & 1)
        # prod over flip of (1 - z_i) = sum over R of (-1)^{|R|} prod z_R
        for r in range(len(flip) + 1):
            for sub in itertools.combinations(flip, r):
                out._add(S.difference(flip).union(sub), (-1) ** r * c)
    return out


def minus(f, g):
    """f - g over Z_8."""
    out = PhasePolynomial(f.n, dict(f.coeffs))
    for S, c in g.coeffs.items():
        out._add(S, -c)
    return out


# The keyed builders the package's arithmetic numbering replaced: every cell
# is keyed by a hashable descriptor and numbered in the order it is added,
# and faces are resolved by key when the builder freezes.  They are the
# reference for the closed-form numbering of ``complexes``.


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

    def freeze(self, labels: dict | None = None, cycles: dict | None = None):
        """The complex, with labels and named cycles keyed by final indices."""
        face: list[list[tuple[int, ...]]] = [[() for _ in self.index[0]]]
        for n in range(1, self.dims + 1):
            table = [()] * len(self.index[n])
            for key, i in self.index[n].items():
                table[i] = tuple(self.index[n - 1][f] for f in self.faces[n][key])
            face.append(table)
        return complexes.DeltaComplex(face, labels or {}, cycles or {})


def keyed_torus3():
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


def side_info(i: int) -> tuple[str, bool]:
    """Edge name and direction of polygon side i of the word a1 b1 a1' b1' ..."""
    j = i // 4 + 1
    r = i % 4
    return (f"a{j}" if r in (0, 2) else f"b{j}", r < 2)


def freeze_handles(b: _Builder, g: int):
    """Freeze a genus-g surface builder with its edges a_j and b_j labelled
    and named as 1-cycles."""
    edges = [(nm, b.idx(1, nm)) for j in range(1, g + 1) for nm in (f"a{j}", f"b{j}")]
    return b.freeze({(1, e): nm for nm, e in edges}, {nm: (1, (e,)) for nm, e in edges})


def keyed_sigma_g(g: int):
    n_sides = 4 * g
    b = _Builder(2)
    b.add(0, "v")
    for j in range(1, g + 1):
        b.add(1, f"a{j}", ("v", "v"))
        b.add(1, f"b{j}", ("v", "v"))
    for i in range(2, n_sides - 1):
        b.add(1, f"D{i}", ("v", "v"))

    def from_corner(i: int) -> str:
        if i == 1:
            return "a1"
        if i == n_sides - 1:
            return f"b{g}"
        return f"D{i}"

    for i in range(1, n_sides - 1):
        name, forward = side_info(i)
        lo, hi = from_corner(i), from_corner(i + 1)
        if forward:
            b.add(2, f"T{i}", (name, hi, lo))
        else:
            b.add(2, f"T{i}", (name, lo, hi))
    return freeze_handles(b, g)


def keyed_sigma_g_rotsym(g: int):
    n_sides = 4 * g
    b = _Builder(2)
    b.add(0, "O")
    b.add(0, "v")
    for j in range(1, g + 1):
        b.add(1, f"a{j}", ("v", "v"))
        b.add(1, f"b{j}", ("v", "v"))
    for i in range(n_sides):
        b.add(1, f"R{i}", ("v", "O"))
    for i in range(n_sides):
        name, forward = side_info(i)
        lo, hi = f"R{i}", f"R{(i + 1) % n_sides}"
        if forward:
            b.add(2, f"U{i}", (name, hi, lo))
        else:
            b.add(2, f"U{i}", (name, lo, hi))
    return freeze_handles(b, g)


def keyed_rotation_automorphism(K, g: int, handles: int = 1):
    """The rotation's edge permutation found by parsing the edge labels back
    into builder names."""
    n_sides = 4 * g
    shift = 4 * handles

    def edge_map(nm: str) -> str:
        if nm.startswith("R"):
            return f"R{(int(nm[1:]) + shift) % n_sides}"
        j = int(nm[1:])
        return f"{nm[0]}{(j - 1 + handles) % g + 1}"

    rev = [K.labels.get((1, s)) or f"R{s - 2 * g}" for s in range(K.n_cells(1))]
    by_label = {nm: s for s, nm in enumerate(rev)}
    perm1 = [by_label[edge_map(rev[s])] for s in range(K.n_cells(1))]
    perm2 = [(s + shift) % n_sides for s in range(K.n_cells(2))]
    return complexes.SimplicialAutomorphism([list(range(K.n_cells(0))), perm1, perm2])


def keyed_mapping_torus(K, phi, layers: int = 1):
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
    for name, (d, cells) in K.cycles.items():
        cycles[name] = (d, tuple(sorted(b.idx(d, ("H", 0, d, c)) for c in cells)))
        if all(phi.perm[d][c] in cells for c in cells):
            swept = [
                b.idx(d + 1, ("S", t, d, c, j))
                for t in range(layers)
                for c in cells
                for j in range(d + 1)
            ]
            cycles[f"{name}xc"] = (d + 1, tuple(sorted(swept)))
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


def keyed_cyclic_cover(K, cochain: dict[int, int], m: int):
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
    return cover, complexes.SimplicialAutomorphism(perm)
