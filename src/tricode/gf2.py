"""Exact GF(2) linear algebra on bit-packed rows.

Rows are Python ints (bit j = column j), so all operations are exact and
word-parallel.  Pivoting is deterministic (lowest column index first) so
that every basis this module produces is reproducible across runs.

Every elimination is a forward ``echelon`` keyed by pivot, with null
vectors back-substituted only where they are picked; ``quotient_bases``
turns two mutually orthogonal row sets into the logical operators of a
CSS code or the cycle and cocycle representatives of homology.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


def popcount(x: int) -> int:
    return x.bit_count()


def dot(u: int, v: int) -> int:
    """Parity of the overlap of two bit vectors."""
    return (u & v).bit_count() & 1


def vec_from_support(support) -> int:
    v = 0
    for i in support:
        v |= 1 << i
    return v


def support(v: int):
    """Set bit positions of v in increasing order, one step per set bit."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


@dataclass
class BitMatrix:
    """GF(2) matrix; ``rows[i]`` packs row i with bit j = entry (i, j)."""

    nrows: int
    ncols: int
    rows: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.rows:
            self.rows = [0] * self.nrows
        if len(self.rows) != self.nrows:
            raise ValueError(f"{len(self.rows)} rows given for a {self.nrows}-row matrix")

    @classmethod
    def from_entries(cls, entries) -> "BitMatrix":
        rows = [vec_from_support(j for j, e in enumerate(r) if e % 2) for r in entries]
        ncols = max((len(r) for r in entries), default=0)
        return cls(len(rows), ncols, rows)

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return BitMatrix(self.ncols, self.nrows, cols)

    def matvec(self, v: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            if dot(r, v):
                out |= 1 << i
        return out

    def rank(self) -> int:
        return len(echelon(self.rows))

    def nullspace(self) -> list[int]:
        """Basis of {v : M v = 0}: one null vector per non-pivot column, in
        increasing column order (``null_vectors``)."""
        by_pivot = echelon(self.rows)
        return null_vectors(by_pivot, [j for j in range(self.ncols) if j not in by_pivot])

def _insert(by_pivot: dict[int, int], r: int) -> int:
    """Forward-eliminate r by the stored rows whose pivots (lowest set bits) it
    hits and store the remainder under its own pivot.  Returns the remainder,
    0 when r already lies in the span of the stored rows."""
    while r:
        p = (r & -r).bit_length() - 1
        b = by_pivot.get(p)
        if b is None:
            by_pivot[p] = r
            return r
        r ^= b
    return 0


def echelon(rows) -> dict[int, int]:
    """Forward echelon of span(rows): one row per pivot (its lowest set bit),
    keyed by pivot, each reduced only by the pivots it hit."""
    by_pivot: dict[int, int] = {}
    for r in rows:
        _insert(by_pivot, r)
    return by_pivot


def top_pivots(rows) -> set[int]:
    """The highest set bits of the nonzero vectors of span(rows): the pivots of
    an echelon keyed by highest instead of lowest bit."""
    by_top: dict[int, int] = {}
    for r in rows:
        while r:
            p = r.bit_length() - 1
            b = by_top.get(p)
            if b is None:
                by_top[p] = r
                break
            r ^= b
    return set(by_top)


def remainder(by_pivot: dict[int, int], x: int, pivot_mask: int) -> int:
    """x plus the echelon rows that clear its pivot bits, lowest first: the one
    vector of x + span with no bit in ``pivot_mask``."""
    while hit := x & pivot_mask:
        x ^= by_pivot[(hit & -hit).bit_length() - 1]
    return x


def null_vectors(by_pivot: dict[int, int], free) -> list[int]:
    """For each non-pivot column j in ``free``, the null-space vector v_j of the
    echelon with bit j and no other non-pivot bit: the canonical kernel basis.
    Back substitution, highest pivot first: bit p is the parity of row p's
    overlap with the bits already set, so row p pairs to zero.  Rows with
    pivots above j have no bit at or below j, so they are skipped."""
    pivots = sorted(by_pivot)
    rows = [by_pivot[p] for p in pivots]
    out = []
    for j in free:
        v = 1 << j
        for i in reversed(range(bisect.bisect(pivots, j))):
            if (rows[i] & v).bit_count() & 1:
                v |= 1 << pivots[i]
        out.append(v)
    return out


def kernel_completion(rows, hz_rows, n: int) -> list[int]:
    """The canonical null vectors of hz (``null_vectors``, increasing column)
    that ``extend_basis(rows, ker hz basis)`` picks, for rows inside ker hz.

    Restriction to the non-pivot columns F of hz maps ker hz one-to-one onto
    F (v_j to e_j), and span(rows) onto span(rows|F).  So v_j enlarges
    span(rows) plus the earlier v exactly when no vector of span(rows|F) has
    highest bit j.  Empty exactly when rows span ker hz.
    """
    # the null vectors do not depend on the order of the rows; on the color
    # code's Z checks the sparsest rows first eliminate 1.1-1.7x faster
    ez = echelon(sorted(hz_rows, key=int.bit_count))
    free = [j for j in range(n) if j not in ez]
    free_mask = vec_from_support(free)
    spanned = top_pivots([r & free_mask for r in rows])
    return null_vectors(ez, [j for j in free if j not in spanned])


def quotient_bases(hx_rows, hz_rows, n: int) -> tuple[list[int], list[int]]:
    """(lx, lz) for mutually orthogonal row sets (hx hz^T = 0) on n columns:
    lx completes span(hx) inside ker hz and lz completes span(hz) inside
    ker hx, each picked from the canonical null vectors as ``extend_basis``
    over the full kernel would pick them.  Both have n - rank hx - rank hz
    vectors: a CSS code's logical X and Z, or H^q and H_q representatives
    for hx = del_q and hz = del_{q+1}^T.  Only the picked vectors are built.

    lx: ``kernel_completion``.  lz: v_j (free column j of hx) lies in
    span(hz) iff it pairs trivially with every lx, since ker hz = span(hx) +
    span(lx) and span(hz) is its annihilator in ker hx.  So v_j enlarges the
    picks iff its k-bit class, its pairings with lx, is independent of
    theirs.  Bit j of lx_i's remainder by hx's echelon is the pairing of v_j
    with lx_i.
    """
    lx = kernel_completion(hx_rows, hz_rows, n)
    ex = echelon(hx_rows)
    pivot_mask = vec_from_support(ex)
    planes = [remainder(ex, x, pivot_mask) for x in lx]
    first: dict[int, int] = {}  # each nonzero class at its first column (a repeat is dependent)
    for j, c in enumerate(BitMatrix(len(planes), n, planes).transpose().rows):
        if c:
            first.setdefault(c, j)
    return lx, null_vectors(ex, [first[c] for c in extend_basis([], list(first))])


def solve_augmented(rows: list[int], ncols: int, m: int) -> list[int | None]:
    """Solutions of m systems M x = b_j sharing one coefficient matrix, in one
    elimination.  Bits below ``ncols`` of each row hold M, bit ncols + j holds
    b_j.  Entry j is the solution with every free variable zero, or None when
    system j is inconsistent, i.e. some echelon row with no coefficient bits
    (pivot at or above ncols) carries b_j.  The solution is the bits below
    ncols of the null vector at column ncols + j of the coefficient rows.
    """
    by_pivot = echelon(rows)
    bad = 0
    for p in [p for p in by_pivot if p >= ncols]:
        bad |= by_pivot.pop(p) >> ncols
    low = (1 << ncols) - 1
    return [None if (bad >> j) & 1 else v & low
            for j, v in enumerate(null_vectors(by_pivot, range(ncols, ncols + m)))]


def extend_basis(old_rows: list[int], candidates: list[int]) -> list[int]:
    """Candidates that enlarge span(old_rows), greedily and deterministically."""
    by_pivot = echelon(old_rows)
    return [c for c in candidates if _insert(by_pivot, c)]


def dual_basis(vecs: list[int], against: list[int]) -> list[int] | None:
    """Recombine vecs into w_0..w_{k-1} with dot(w_j, against_i) = delta_ij, or
    None when the pairing matrix dot(vecs_j, against_i) is not invertible."""
    k = len(vecs)
    if len(against) != k:
        return None
    pairing = [vec_from_support(j for j, v in enumerate(vecs) if dot(v, a)) for a in against]
    p_inv = invert(pairing, k)
    if p_inv is None:
        return None
    out = []
    for j in range(k):
        acc = 0
        for m in range(k):
            if (p_inv[m] >> j) & 1:
                acc ^= vecs[m]
        out.append(acc)
    return out


def invert(rows: list[int], n: int) -> list[int] | None:
    """Inverse of an n x n GF(2) matrix given as packed rows, or None.

    Row i of A^-1 is the x with A^T x = e_i, so the n systems share A^T
    and ``solve_augmented`` solves them at once; A is singular exactly when
    one of them is inconsistent."""
    if any(r >> n for r in rows):
        raise ValueError(f"row has a bit at or above column {n}")
    cols = BitMatrix(n, n, list(rows)).transpose().rows
    inv = solve_augmented([c | 1 << (n + i) for i, c in enumerate(cols)], n, n)
    return None if None in inv else inv
