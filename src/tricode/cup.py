"""Cup integrals of 1-cochains: spine edges, and the one pass over the
spines of the top simplices that integrates cup products of 1-cochains on a
surface and on a 3-complex.

Spines come from face maps alone (never from global vertex lists, which are
ambiguous on one-vertex complexes): the front i-face deletes the last vertex
repeatedly, and its back 1-face deletes the first.
"""

from __future__ import annotations

import itertools

from .complexes import DeltaComplex, is_closed
from .gf2 import BitMatrix, invert, support
from . import homology


def spine_edges(K: DeltaComplex, n: int) -> list[tuple[int, ...]]:
    """For each n-simplex [v0 .. vn], its spine: the edges [v_{i-1} v_i] for
    i = 1..n.  Empty when K has no n-simplices."""
    return [tuple(K.back(i, K.front(n, s, i), 1) for i in range(1, n + 1))
            for s in range(K.n_cells(n))]


def cup_integrals(K: DeltaComplex, cocycles: list[int]) -> list:
    """Integrals over K of cup products of the 1-cochains c_0..c_{k-1}
    (repeats allowed, no symmetry assumed) from one pass over the spines of
    the top simplices, with mask(e) the indices i where c_i(e) = 1.  On a
    2-complex: the k x k matrix as packed rows, bit j of row i the integral
    of c_i cup c_j.  On a 3-complex: the triples i <= j <= l, in lexicographic
    order, where the integral of c_i cup c_j cup c_l is odd."""
    if K.dims not in (2, 3):
        raise ValueError("cup integrals of 1-cocycles need a 2- or 3-complex")
    k = len(cocycles)
    mask = BitMatrix(k, K.n_cells(1), cocycles).transpose().rows
    if K.dims == 2:
        rows = [0] * k
        for e1, e2 in spine_edges(K, 2):
            for i in support(mask[e1]):
                rows[i] ^= mask[e2]
        return rows
    parity = [0] * (k * k)  # bit l of parity[i * k + j]: integral (i, j, l)
    for e1, e2, e3 in spine_edges(K, 3):
        m2, m3 = mask[e2], mask[e3]
        for i in support(mask[e1]):
            for j in support(m2 >> i << i):
                parity[i * k + j] ^= m3 >> j << j
    return [(i, j, l) for i, j, l in itertools.combinations_with_replacement(range(k), 3)
            if (parity[i * k + j] >> l) & 1]


def surface_intersection_form(K: DeltaComplex) -> list[list[int]]:
    """M_ij = integral of c_i cup c_j over a closed surface, on the H^1 basis
    of ``homology.canonical_basis``; must be nondegenerate (raises otherwise)."""
    if K.dims != 2:
        raise ValueError("intersection form needs a 2-complex")
    if not is_closed(K):
        raise ValueError("intersection form needs a closed surface")
    rows = cup_integrals(K, homology.canonical_basis(K, 1)[1])
    k = len(rows)
    if k and invert(rows, k) is None:
        raise ValueError("degenerate intersection form (non-closed or non-surface input)")
    return [[(r >> j) & 1 for j in range(k)] for r in rows]
