"""Mapping-class-group algebra on the homology level.

Symplectic transvections for Dehn twists (basis a_1..a_g, b_1..b_g with
<a_i, b_j> = -delta_ij, <b_i, a_j> = +delta_ij, the convention that
reproduces the genus-2 generator matrices), mapping-torus homology via
Smith normal form, Thurston's two-multicurve construction with exact
Perron-Frobenius numerics, triple forms of Torelli mapping tori, and
thickened-Dehn-twist logical CNOT actions on product 3-manifolds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .snf import IntMatrix, identity, matmul, smith_normal_form
from .gf2 import BitMatrix, echelon, vec_from_support, dot


def symplectic_form(g: int) -> IntMatrix:
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[i][g + i] = -1
        J[g + i][i] = 1
    return J


def is_symplectic(M: IntMatrix, g: int) -> bool:
    J = symplectic_form(g)
    Mt = [[M[j][i] for j in range(2 * g)] for i in range(2 * g)]
    return matmul(matmul(Mt, J), M) == J


def sym_pairing(x: list[int], y: list[int], g: int) -> int:
    total = 0
    for i in range(g):
        total += -x[i] * y[g + i] + x[g + i] * y[i]
    return total


def dehn_twist_matrix(curve: list[int], g: int) -> IntMatrix:
    """Transvection x -> x + <x, c> c for an integral H_1 class c."""
    if len(curve) != 2 * g:
        raise ValueError("curve must be a 2g-vector in the (a, b) basis")
    M = identity(2 * g)
    for i in range(2 * g):
        basis = [1 if t == i else 0 for t in range(2 * g)]
        coeff = sym_pairing(basis, curve, g)
        for r in range(2 * g):
            M[r][i] += coeff * curve[r]
    if not is_symplectic(M, g):
        raise RuntimeError("Dehn twist matrix failed its symplectic self-check")
    return M


def humphries_curve(name: str) -> list[int]:
    """H_1 classes of the five genus-2 Humphries twist curves t_1..t_5."""
    a1 = [1, 0, 0, 0]
    a2 = [0, 1, 0, 0]
    b1 = [0, 0, 1, 0]
    b2 = [0, 0, 0, 1]
    table = {
        "t1": a1,
        "t2": b1,
        "t3": [1, 1, 0, 0],  # the separating-handle curve class a1 + a2
        "t4": b2,
        "t5": a2,
    }
    return table[name]


def _parse_curve(spec: str, g: int) -> tuple[str, int]:
    """a:i | b:i | f:i as (kind, i), with a and b in 1..g and f in 1..g-1."""
    kind, _, idx = spec.partition(":")
    top = {"a": g, "b": g, "f": g - 1}.get(kind)
    if top is None:
        raise ValueError(f"unknown curve {spec!r}")
    i = int(idx)
    if not 1 <= i <= top:
        raise ValueError(f"curve {spec!r}: index must lie in 1..{top} (genus {g})")
    return kind, i


def curve_class(spec: str, g: int) -> list[int]:
    """Parse a:i | b:i | f:i (f_i = b_{i+1} - b_i) into an H_1 vector."""
    kind, i = _parse_curve(spec, g)
    v = [0] * (2 * g)
    v[{"a": i - 1, "b": g + i - 1, "f": g + i}[kind]] = 1
    if kind == "f":
        v[g + i - 1] = -1
    return v


@dataclass
class MappingTorusHomology:
    """H_1(M(f); Z) = Z + Coker(f - Id): free rank and torsion factors."""

    free_rank: int
    torsion: list[int]
    snf_diagonal: list[int]

    def describe(self) -> str:
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _shape(M: IntMatrix, what: str, square: bool) -> tuple[int, int]:
    """(rows, cols) of a nonempty matrix whose rows have one length, square
    when asked; ValueError otherwise."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if not cols:
        raise ValueError(f"{what} is empty ({rows} rows, {cols} columns)")
    bad = next((i for i, r in enumerate(M) if len(r) != cols), None)
    if bad is not None:
        raise ValueError(f"{what} is ragged: row {bad} has {len(M[bad])} entries, row 0 has {cols}")
    if square and rows != cols:
        raise ValueError(f"{what} must be square, not {rows}x{cols}")
    return rows, cols


def mapping_torus_homology(fhat: IntMatrix, coeff: str = "Z") -> MappingTorusHomology | int:
    """Homology of the mapping torus of a symplectic matrix.

    Over Z: Z (the base circle) plus Coker(fhat - Id), read off the Smith
    normal form.  Over Z2: the first Betti number, 1 + corank of
    (fhat - Id) mod 2.  ValueError unless fhat is a nonempty square matrix.
    """
    n, _ = _shape(fhat, "the mapping class matrix", square=True)
    if coeff.upper() == "Z":
        delta = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(fhat)]
        res = smith_normal_form(delta)
        zero = sum(1 for d in res.diagonal if d == 0) + (n - len(res.diagonal))
        torsion = [d for d in res.diagonal if d > 1]
        return MappingTorusHomology(1 + zero, torsion, res.diagonal)
    if coeff.upper() in ("Z2", "GF2"):
        return 1 + n - len(echelon(_minus_identity_gf2(fhat)))
    raise ValueError("coeff must be Z or Z2")


def _minus_identity_gf2(fhat: IntMatrix) -> list[int]:
    """The rows of (fhat - Id) mod 2, packed."""
    return [vec_from_support(j for j, x in enumerate(row) if (x - (i == j)) % 2)
            for i, row in enumerate(fhat)]


def invariant_subspace_gf2(fhat: IntMatrix) -> list[int]:
    """Basis of ker(fhat - Id) over GF(2): the classes that extend over the
    mapping torus."""
    n = len(fhat)
    return BitMatrix(n, n, _minus_identity_gf2(fhat)).nullspace()


def gf2_pairing(u: int, v: int, g: int) -> int:
    """The mod-2 intersection number of two classes in the (a, b) basis: the
    form pairs a_i with b_i, so it is the overlap of u with v's halves swapped."""
    half = (1 << g) - 1
    return dot(u, (v >> g & half) | (v & half) << g)


UNKNOWN = "UNKNOWN-ALGEBRAIC"


@dataclass(frozen=True)
class TripleForm:
    """Triple intersection coefficients on a labelled H_2 basis; values in
    {0, 1} or UNKNOWN-ALGEBRAIC for triples the algebra cannot see."""

    labels: list[str]
    coefficients: dict[frozenset, object] = field(default_factory=dict)

    def __post_init__(self):
        if any(type(v) not in (str, int) for v in self.labels) or len(set(self.labels)) < len(self.labels):
            raise ValueError(f"form labels {self.labels} are not distinct strs or ints")

    def known_unit_triples(self) -> list[tuple]:
        return sorted(tuple(sorted(t)) for t, v in self.coefficients.items() if v == 1)

def torelli_triple_form(fhat: IntMatrix, g: int) -> TripleForm:
    """Triple form of the mapping torus of fhat, on the basis [Gamma] +
    extendable surface classes.

    Triples containing the base class Gamma evaluate to the surface
    intersection pairing of the two fibre classes; triples of three fibre
    classes are only computable geometrically and stay UNKNOWN-ALGEBRAIC.
    """
    inv = invariant_subspace_gf2(fhat)
    labels = ["Gamma"] + [f"v{i + 1}" for i in range(len(inv))]
    form = TripleForm(labels)
    for i in range(len(inv)):
        for j in range(i + 1, len(inv)):
            val = gf2_pairing(inv[i], inv[j], g)
            form.coefficients[frozenset({0, i + 1, j + 1})] = val
    for t in itertools.combinations(range(1, len(inv) + 1), 3):
        form.coefficients[frozenset(t)] = UNKNOWN
    return form


def is_torelli_gf2(fhat: IntMatrix) -> bool:
    return not any(_minus_identity_gf2(fhat))


# ---------------------------------------------------------------------------
# Thurston's construction
# ---------------------------------------------------------------------------


@dataclass
class ThurstonResult:
    nu: float
    trace: float
    is_pseudo_anosov: bool
    stretch_factor: float | None

    def volume_upper_bound(self, g: int) -> float | None:
        if self.stretch_factor is None:
            return None
        return 3 * math.pi * (2 * g - 2) * math.log(self.stretch_factor)


def _is_irreducible(M: list[list[float]]) -> bool:
    n = len(M)
    reach = [{j for j in range(n) if M[i][j] != 0 or i == j} for i in range(n)]
    for _ in range(n):
        for i in range(n):
            reach[i] = set().union(*(reach[j] for j in reach[i]))
    return all(len(r) == n for r in reach)


_PERRON_TOL, _PERRON_ITERS = 1e-14, 100000


def perron_eigenvalue(M: list[list[float]]) -> float:
    """Largest eigenvalue of a nonnegative irreducible matrix by power
    iteration with Rayleigh quotients, to relative tolerance _PERRON_TOL
    within _PERRON_ITERS steps."""
    n = len(M)
    v = [1.0] * n
    lam = 0.0
    for _ in range(_PERRON_ITERS):
        w = [sum(M[i][j] * v[j] for j in range(n)) for i in range(n)]
        norm = math.sqrt(sum(x * x for x in w))
        if norm == 0:
            return 0.0
        w = [x / norm for x in w]
        new_lam = sum(w[i] * sum(M[i][j] * w[j] for j in range(n)) for i in range(n))
        if abs(new_lam - lam) < _PERRON_TOL * max(1.0, abs(new_lam)):
            return new_lam
        lam, v = new_lam, w
    return lam


def thurston(N: IntMatrix, word: list[str]) -> ThurstonResult:
    """Thurston's construction for a pair of filling multicurves with
    geometric intersection matrix N.

    nu is the Perron-Frobenius eigenvalue of N N^T; the word (over
    A, B, A-, B-) maps to 2x2 real matrices T_A = [[1, sqrt(nu)], [0, 1]],
    T_B = [[1, 0], [-sqrt(nu), 1]]; |trace| > 2 certifies pseudo-Anosov and
    the larger eigenvalue modulus is the stretch factor.  N is rows x cols
    for multicurves of rows and cols components; ValueError when it is empty
    or ragged.
    """
    rows, cols = _shape(N, "the intersection matrix N", square=False)
    NNT = [[float(sum(N[i][t] * N[j][t] for t in range(cols))) for j in range(rows)] for i in range(rows)]
    if not _is_irreducible(NNT):
        raise ValueError("N N^T is reducible: Perron-Frobenius does not apply")
    nu = perron_eigenvalue(NNT)
    r = math.sqrt(nu)
    mats = {
        "A": ((1.0, r), (0.0, 1.0)),
        "A-": ((1.0, -r), (0.0, 1.0)),
        "B": ((1.0, 0.0), (-r, 1.0)),
        "B-": ((1.0, 0.0), (r, 1.0)),
    }
    M = ((1.0, 0.0), (0.0, 1.0))
    for tok in word:
        if tok not in mats:
            raise ValueError(f"unknown word letter {tok!r} (use A, B, A-, B-)")
        a = mats[tok]
        M = (
            (M[0][0] * a[0][0] + M[0][1] * a[1][0], M[0][0] * a[0][1] + M[0][1] * a[1][1]),
            (M[1][0] * a[0][0] + M[1][1] * a[1][0], M[1][0] * a[0][1] + M[1][1] * a[1][1]),
        )
    tr = M[0][0] + M[1][1]
    if abs(tr) > 2:
        stretch = (abs(tr) + math.sqrt(tr * tr - 4)) / 2
        return ThurstonResult(nu, tr, True, stretch)
    return ThurstonResult(nu, tr, False, None)


# ---------------------------------------------------------------------------
# Thickened Dehn twists on Sigma_g x S^1
# ---------------------------------------------------------------------------


@dataclass
class ThickenedTwistAction:
    """Action of a thickened Dehn twist on the H_2 / H_1 bases of
    Sigma_g x S^1 and its reading as logical CNOTs in one toric-code copy.

    Basis order: a1xc .. agxc, b1xc .. bgxc, Sigma (membranes); the H_1
    (Z-string) action is the inverse transpose over GF(2).
    """

    g: int
    matrix: list[int]  # columns of the GF(2) action on the membrane basis
    cnots: list[tuple[str, str]]  # (control label, target label), copy 1

    def labels(self) -> list[str]:
        g = self.g
        return [f"a{i + 1}xc" for i in range(g)] + [f"b{i + 1}xc" for i in range(g)] + ["Sigma"]

    def compose(self, earlier: "ThickenedTwistAction") -> "ThickenedTwistAction":
        """self after earlier (operator product self . earlier)."""
        cols = []
        for j in range(2 * self.g + 1):
            src = earlier.matrix[j]
            acc = 0
            for i in range(2 * self.g + 1):
                if (src >> i) & 1:
                    acc ^= self.matrix[i]
            cols.append(acc)
        return ThickenedTwistAction(self.g, cols, earlier.cnots + self.cnots)


def thickened_dehn_twist_action(curve: str, g: int) -> ThickenedTwistAction:
    """Thickened twist along curve x c for curve in {a:i, b:i, f:i}.

    b:i sends the membrane a_i x c to (a_i x c)(b_i x c): the logical CNOT
    with control (a_i x c; 1) and target (b_i x c; 1); a:i is the mirror;
    f:i couples neighbouring handles i and i+1 (four CNOTs).
    """
    kind, i = _parse_curve(curve, g)
    i -= 1
    m = 2 * g + 1
    a = lambda t: t
    b = lambda t: g + t
    cols = [1 << t for t in range(m)]  # identity
    cnots: list[tuple[str, str]] = []
    if kind == "b":
        cols[a(i)] ^= 1 << b(i)
        cnots = [(f"a{i + 1}xc", f"b{i + 1}xc")]
    elif kind == "a":
        cols[b(i)] ^= 1 << a(i)
        cnots = [(f"b{i + 1}xc", f"a{i + 1}xc")]
    else:  # f
        for t in (i, i + 1):
            cols[a(t)] ^= (1 << b(i)) | (1 << b(i + 1))
        cnots = [
            (f"a{i + 1}xc", f"b{i + 1}xc"),
            (f"a{i + 2}xc", f"b{i + 2}xc"),
            (f"a{i + 1}xc", f"b{i + 2}xc"),
            (f"a{i + 2}xc", f"b{i + 1}xc"),
        ]
    return ThickenedTwistAction(g, cols, cnots)


def twist_sequence_action(specs: list[str], g: int) -> ThickenedTwistAction:
    """Operator product of thickened twists, rightmost applied first."""
    if g < 1:
        raise ValueError(f"genus must be at least 1, not {g}")
    actions = [thickened_dehn_twist_action(s, g) for s in specs]
    total = ThickenedTwistAction(g, [1 << t for t in range(2 * g + 1)], [])  # the empty product
    for act in reversed(actions):
        total = act.compose(total)
    return total
