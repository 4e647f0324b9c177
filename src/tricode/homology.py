"""GF(2) homology and cohomology of Delta-complexes.

Boundary matrices act on bit-packed chain vectors (bit s = simplex s).
Bases are canonical: in degree n, ``gf2.quotient_bases`` on the rows of
del_n and of del_{n+1}^T picks the cocycles completing the coboundaries
and the cycles completing the boundaries, from one forward elimination per
boundary matrix.  ``canonical_basis`` returns them with an identity pairing
so downstream reports are stable across runs, and ``logical_labels`` names
the H_1 classes alike for the toric code, the triple form and the hypergraph.
"""

from __future__ import annotations

from .complexes import DeltaComplex
from .gf2 import BitMatrix, dot, dual_basis, quotient_bases, solve_augmented, vec_from_support


def boundary_matrix(K: DeltaComplex, n: int) -> BitMatrix:
    """del_n : C_n -> C_{n-1}; entry (f, s) = parity of occurrences of f among
    the faces of s."""
    rows = [0] * K.n_cells(n - 1)
    if 1 <= n <= K.dims:
        for s, fs in enumerate(K.face[n]):
            for f in fs:
                rows[f] ^= 1 << s
    return BitMatrix(K.n_cells(n - 1), K.n_cells(n), rows)


def representatives(K: DeltaComplex, n: int) -> tuple[list[int], list[int]]:
    """(cocycles, cycles) of degree n: H^n and H_n class representatives,
    the canonical null vectors of del_{n+1}^T and of del_n that complete
    im delta_{n-1} (the row space of del_n) and im del_{n+1}.  del_0 has no
    rows and del_{d+1} no columns, so every degree is covered.

    The picks assume del del = 0, which K's construction guarantees: a
    ``DeltaComplex`` satisfies the simplicial identities.
    """
    return quotient_bases(boundary_matrix(K, n).rows,
                          boundary_matrix(K, n + 1).transpose().rows, K.n_cells(n))


def betti(K: DeltaComplex, n: int) -> int:
    """b_n over GF(2); 0 outside degrees 0..dims."""
    return betti_all(K)[n] if 0 <= n <= K.dims else 0


def betti_all(K: DeltaComplex) -> tuple[int, ...]:
    """Every Betti number, ranking each of del_1..del_d once."""
    ranks = [0] + [boundary_matrix(K, n).rank() for n in range(1, K.dims + 1)] + [0]
    return tuple(K.n_cells(n) - ranks[n] - ranks[n + 1] for n in range(K.dims + 1))


def canonical_basis(K: DeltaComplex, n: int) -> tuple[list[int], list[int]]:
    """(cycles, cocycles) of degree n with identity pairing: the
    ``representatives``, with the cocycles recombined so that
    cocycle_j(cycle_i) = delta_ij."""
    cocycles, cycles = representatives(K, n)
    return cycles, _dual_cocycles(cocycles, cycles)


def _dual_cocycles(cocycles: list[int], cycles: list[int]) -> list[int]:
    """``cocycles`` recombined to pair to the identity with ``cycles``."""
    # invertible since both bases are complete
    duals = dual_basis(cocycles, cycles)
    if duals is None:
        raise RuntimeError("homology/cohomology pairing is degenerate")
    if any(dot(c, z) != (i == j) for i, z in enumerate(cycles) for j, c in enumerate(duals)):
        raise RuntimeError("recombined cocycles do not pair to the identity")
    return duals


def named_cycle_vector(K: DeltaComplex, name: str) -> int:
    return vec_from_support(K.cycles[name][1])


def logical_basis(K: DeltaComplex) -> tuple[list[str] | None, list[int], list[int]]:
    """(names, cycles, dual cocycles) of H_1 from one ``representatives`` call.

    The builder's named 1-cycles are the basis when there are b_1 of them and
    their pairing with the H^1 class representatives is invertible; otherwise
    names is None and the basis is ``canonical_basis``'s.
    """
    cocycles, cycles = representatives(K, 1)
    names = [nm for nm, (d, _) in K.cycles.items() if d == 1]
    if len(names) == len(cocycles):
        named = [named_cycle_vector(K, nm) for nm in names]
        duals = dual_basis(cocycles, named)
        if duals is not None:
            return names, named, duals
    return None, cycles, _dual_cocycles(cocycles, cycles)


def poincare_duals(K: DeltaComplex, zs: list[int]) -> list[int]:
    """For each q-cycle z in zs on a closed d-complex, q = d - 1, a 1-cocycle
    c with integral(c cup beta) = beta(z) for every q-cocycle basis element
    beta (d = 3: membrane -> 1-cocycle; d = 2: curve -> 1-cocycle).

    Solved as one GF(2) system with c constrained to the cocycle condition:
    it is built once and each cycle contributes one right-hand-side bit per
    row, above the cochain columns.  Each result is unique up to coboundary.
    Raises if some z has no solution (non-cycle input or a complex without
    GF(2) Poincare duality)."""
    d, p = K.dims, 1
    q = d - p
    if q < 0:
        raise ValueError("bad degrees")
    del_q = boundary_matrix(K, q)
    if any(del_q.matvec(z) for z in zs):
        raise ValueError(f"input chain is not a {q}-cycle")
    if not zs:
        return []
    ncells = K.n_cells(p)
    betas, _ = representatives(K, q)  # only the span mod coboundaries matters
    # integral(c cup beta) = sum over top simplices of c(front) beta(back)
    faces = [(K.front(d, s, p), K.back(d, s, q)) for s in range(K.n_cells(d))]
    rows = boundary_matrix(K, p + 1).transpose().rows
    for beta in betas:
        row = 0
        for front, back in faces:
            if (beta >> back) & 1:
                row ^= 1 << front
        rhs = vec_from_support(j for j, z in enumerate(zs) if dot(beta, z))
        rows.append(row | rhs << ncells)
    duals = solve_augmented(rows, ncells, len(zs))
    if None in duals:
        raise ValueError("no Poincare dual: complex is not a closed GF(2) manifold cycle")
    return duals


def logical_labels(K: DeltaComplex, names: list[str] | None, cycles: list[int]) -> list[str]:
    """One name per class of ``logical_basis``'s (names, cycles): on a closed
    3-complex, the named 2-cycles whose Poincare duals pair 1 with them, when
    each class has exactly one and no two share it; else the named 1-cycles,
    or h0, h1, ... when names is None."""
    if names is None:
        return [f"h{i}" for i in range(len(cycles))]
    if K.dims != 3:
        return names
    named2 = [nm for nm, (d, _) in K.cycles.items() if d == 2]
    try:
        duals = poincare_duals(K, [named_cycle_vector(K, nm) for nm in named2])
    except ValueError:  # a named 2-cycle without a Poincare dual
        return names
    labels = []
    for z in cycles:
        hits = [nm for nm, pd in zip(named2, duals) if dot(pd, z)]
        if len(hits) != 1 or hits[0] in labels:
            return names
        labels.append(hits[0])
    return labels
