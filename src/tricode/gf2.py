"""Exact GF(2) linear algebra on bit-packed rows.

Rows are Python ints (bit j = column j), so all operations are exact and
word-parallel.  Pivoting is deterministic (lowest column index first) so
that every basis this module produces is reproducible across runs.
"""

from __future__ import annotations

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
        assert len(self.rows) == self.nrows

    @classmethod
    def from_entries(cls, entries) -> "BitMatrix":
        rows = [vec_from_support(j for j, e in enumerate(r) if e % 2) for r in entries]
        ncols = max((len(r) for r in entries), default=0)
        return cls(len(rows), ncols, rows)

    def to_entries(self):
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.nrows, self.ncols, list(self.rows))

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

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        assert self.ncols == other.nrows
        ot = other.transpose()
        rows = []
        for r in self.rows:
            acc = 0
            for j, c in enumerate(ot.rows):
                if dot(r, c):
                    acc |= 1 << j
            rows.append(acc)
        return BitMatrix(self.nrows, other.ncols, rows)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def rank(self) -> int:
        return len(row_reduce(self.rows)[0])

    def row_space_basis(self) -> list[int]:
        return row_reduce(self.rows)[0]

    def nullspace(self) -> list[int]:
        """Basis of {v : M v = 0}, in deterministic order."""
        basis, pivots = row_reduce(self.rows)
        pivot_set = set(pivots)
        out = []
        for j in range(self.ncols):
            if j in pivot_set:
                continue
            v = 1 << j
            for row, p in zip(basis, pivots):
                if (row >> j) & 1:
                    v |= 1 << p
            out.append(v)
        return out

    def solve(self, b: int) -> int | None:
        """One solution x of M x = b, or None if inconsistent."""
        rows = list(self.rows)
        rhs = [(b >> i) & 1 for i in range(self.nrows)]
        pivots = []
        for j in range(self.ncols):
            sel = None
            for i in range(len(rows)):
                if i in (p[0] for p in pivots):
                    continue
                if (rows[i] >> j) & 1:
                    sel = i
                    break
            if sel is None:
                continue
            for i in range(len(rows)):
                if i != sel and (rows[i] >> j) & 1:
                    rows[i] ^= rows[sel]
                    rhs[i] ^= rhs[sel]
            pivots.append((sel, j))
        x = 0
        used = set()
        for i, j in pivots:
            used.add(i)
            if rhs[i]:
                x |= 1 << j
        if any(rhs[i] for i in range(self.nrows) if i not in used):
            return None
        return x


def row_reduce(rows) -> tuple[list[int], list[int]]:
    """Reduced row echelon basis of the span plus pivot columns.

    The pivot of a row is its lowest set bit.  Forward elimination keeps one
    row per pivot and reduces each new row only by the pivots it hits; back
    substitution then clears every other pivot column, highest pivot first.
    Reducing twice equals reducing once (the representation is canonical).
    """
    by_pivot: dict[int, int] = {}
    for r in rows:
        while r:
            p = (r & -r).bit_length() - 1
            b = by_pivot.get(p)
            if b is None:
                by_pivot[p] = r
                break
            r ^= b
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


def in_span(basis_rows, v: int) -> bool:
    basis, pivots = row_reduce(basis_rows)
    for b, p in zip(basis, pivots):
        if (v >> p) & 1:
            v ^= b
    return v == 0


def extend_basis(old_rows: list[int], candidates: list[int]) -> list[int]:
    """Candidates that enlarge span(old_rows), greedily and deterministically."""
    basis, pivots = row_reduce(old_rows)
    out = []
    for c in candidates:
        r = c
        for b, p in zip(basis, pivots):
            if (r >> p) & 1:
                r ^= b
        if r == 0:
            continue
        out.append(c)
        p = (r & -r).bit_length() - 1
        for i in range(len(basis)):
            if (basis[i] >> p) & 1:
                basis[i] ^= r
        basis.append(r)
        pivots.append(p)
    return out


def invert(rows: list[int], n: int) -> list[int] | None:
    """Inverse of an n x n GF(2) matrix given as packed rows, or None."""
    work = list(rows)
    inv = [1 << i for i in range(n)]
    for j in range(n):
        sel = None
        for i in range(j, n):
            if (work[i] >> j) & 1:
                sel = i
                break
        if sel is None:
            return None
        work[j], work[sel] = work[sel], work[j]
        inv[j], inv[sel] = inv[sel], inv[j]
        for i in range(n):
            if i != j and (work[i] >> j) & 1:
                work[i] ^= work[j]
                inv[i] ^= inv[j]
    return inv
