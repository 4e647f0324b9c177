"""Smith normal form of integer matrices by unimodular row/column reduction.

Exact arbitrary-precision arithmetic throughout (twist powers overflow fixed
width quickly).  The minor-gcd characterisation A(i) = D(i)/D(i-1) is kept
out of the production path; it serves as the independent test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

IntMatrix = list[list[int]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    n, m, k = len(A), len(B[0]) if B else 0, len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def det(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


@dataclass
class SnfResult:
    diagonal: list[int]  # length min(rows, cols), divisibility chain, >= 0
    P: IntMatrix  # unimodular, rows x rows
    Q: IntMatrix  # unimodular, cols x cols

def smith_normal_form(M: IntMatrix) -> SnfResult:
    """P * M * Q diagonal with A(i) | A(i+1); P, Q unimodular."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [row[:] for row in M]
    P = identity(rows)
    Q = identity(cols)
    n = min(rows, cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(cols):
            A[i][t] -= q * A[j][t]
        for t in range(rows):
            P[i][t] -= q * P[j][t]

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(rows):
            A[t][i] -= q * A[t][j]
        for t in range(cols):
            Q[t][i] -= q * Q[t][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        P[i], P[j] = P[j], P[i]

    def swap_cols(i, j):
        for t in range(rows):
            A[t][i], A[t][j] = A[t][j], A[t][i]
        for t in range(cols):
            Q[t][i], Q[t][j] = Q[t][j], Q[t][i]

    def negate_row(i):
        for t in range(cols):
            A[i][t] = -A[i][t]
        for t in range(rows):
            P[i][t] = -P[i][t]

    def reduce_at(k: int) -> None:
        """Clear row k and column k below/right of a minimal pivot at (k, k)."""
        while True:
            pivot, best = None, None
            for i in range(k, rows):
                for j in range(k, cols):
                    v = abs(A[i][j])
                    if v and (best is None or v < best):
                        best, pivot = v, (i, j)
            if pivot is None:
                return
            pi, pj = pivot
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            if A[k][k] < 0:
                negate_row(k)
            clean = True
            for i in range(k + 1, rows):
                q = A[i][k] // A[k][k]
                if q:
                    row_op(i, k, q)
                if A[i][k]:
                    clean = False
            for j in range(k + 1, cols):
                q = A[k][j] // A[k][k]
                if q:
                    col_op(j, k, q)
                if A[k][j]:
                    clean = False
            if clean:
                return

    for k in range(n):
        reduce_at(k)
    # enforce the divisibility chain: fold misordered pairs and re-reduce
    while True:
        offender = None
        for k in range(n - 1):
            a, b = A[k][k], A[k + 1][k + 1]
            if a and b and b % a:
                offender = k
                break
        if offender is None:
            break
        col_op(offender, offender + 1, -1)
        for t in range(offender, n):
            reduce_at(t)
    for k in range(n):
        if A[k][k] < 0:
            negate_row(k)
    result = SnfResult([A[k][k] for k in range(n)], P, Q)
    _verify(M, result, rows, cols)
    return result


def _verify(M: IntMatrix, r: SnfResult, rows: int, cols: int) -> None:
    D = matmul(matmul(r.P, M), r.Q)
    for i in range(rows):
        for j in range(cols):
            want = r.diagonal[i] if i == j and i < len(r.diagonal) else 0
            if D[i][j] != want:
                raise RuntimeError("SNF verification failed: PMQ not diagonal")
    for i in range(len(r.diagonal) - 1):
        a, b = r.diagonal[i], r.diagonal[i + 1]
        if a == 0 and b != 0:
            raise RuntimeError("SNF: zero before nonzero")
        if a != 0 and b % a:
            raise RuntimeError("SNF: divisibility chain broken")
    if abs(det(r.P)) != 1 or abs(det(r.Q)) != 1:
        raise RuntimeError("SNF: transforms not unimodular")
