"""Simplicial cochain operations: cup products, spine edges, triple-cup
integrals against the fundamental class, and surface intersection forms.

Cochains are bit vectors indexed by n-simplices.  Front/back faces are
computed purely through face maps (never via global vertex lists, which are
ambiguous on one-vertex complexes): the front p-face deletes the last
vertex repeatedly, the back q-face deletes the first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DeltaComplex, is_closed
from .gf2 import invert, popcount, vec_from_support
from . import homology


@dataclass(frozen=True)
class Cochain:
    dim: int
    values: int  # bit s = value on n-simplex s

    def __call__(self, s: int) -> int:
        return (self.values >> s) & 1

def cup(K: DeltaComplex, a: Cochain, b: Cochain) -> Cochain:
    """(a cup b)(sigma) = a(front p-face) * b(back q-face)."""
    p, q = a.dim, b.dim
    n = p + q
    if n > K.dims:
        raise ValueError(f"cup degree {n} exceeds complex dimension {K.dims}")
    out = 0
    for s in range(K.n_cells(n)):
        if a(K.front(n, s, p)) and b(K.back(n, s, q)):
            out |= 1 << s
    return Cochain(n, out)


def integrate(K: DeltaComplex, c: Cochain) -> int:
    """Pairing with the fundamental class: sum over all top simplices mod 2."""
    if c.dim != K.dims:
        raise ValueError("can only integrate a top-dimensional cochain")
    return popcount(c.values) & 1


def spine_edges(K: DeltaComplex, n: int) -> list[tuple[int, ...]]:
    """For each n-simplex [v0 .. vn], its spine: the edges [v_{i-1} v_i] for
    i = 1..n.  Empty when K has no n-simplices."""
    return [tuple(K.back(i, K.front(n, s, i), 1) for i in range(1, n + 1))
            for s in range(K.n_cells(n))]


def triple_cup_integral(K: DeltaComplex, a: Cochain, b: Cochain, c: Cochain) -> int:
    """integral over K of a cup b cup c for 1-cochains on a closed 3-complex.

    Evaluated directly, one product per 3-simplex on its spine: a([v0 v1])
    b([v1 v2]) c([v2 v3]); equality with the nested cup evaluation is a test.
    """
    if K.dims != 3:
        raise ValueError("triple cup integral needs a 3-complex")
    if (a.dim, b.dim, c.dim) != (1, 1, 1):
        raise ValueError("triple cup integral takes three 1-cochains")
    total = 0
    for e1, e2, e3 in spine_edges(K, 3):
        total ^= a(e1) & b(e2) & c(e3)
    return total


def surface_intersection_form(K: DeltaComplex) -> list[list[int]]:
    """M_ij = integral of c_i cup c_j over a closed surface, on the H^1 basis
    of ``homology.canonical_basis``; must be nondegenerate (raises otherwise)."""
    if K.dims != 2:
        raise ValueError("intersection form needs a 2-complex")
    if not is_closed(K):
        raise ValueError("intersection form needs a closed surface")
    cocycles = [Cochain(1, c) for c in homology.canonical_basis(K, 1)[1]]
    k = len(cocycles)
    M = [[integrate(K, cup(K, cocycles[i], cocycles[j])) for j in range(k)] for i in range(k)]
    if k and invert([vec_from_support(j for j in range(k) if M[i][j]) for i in range(k)], k) is None:
        raise ValueError("degenerate intersection form (non-closed or non-surface input)")
    return M


def named_dual_cocycles(K: DeltaComplex) -> dict[str, Cochain]:
    """1-cocycles dual to the builder's named 1-cycles (pairing = identity)."""
    names, _, duals = homology.logical_basis(K)
    if names is None:
        raise ValueError("builder cycles do not form a basis of H_1")
    return {nm: Cochain(1, d) for nm, d in zip(names, duals)}
