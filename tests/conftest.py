import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tricode import complexes, homology
from tricode.cup import Cochain, cup
from tricode.gates import PhasePolynomial
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
