import itertools
import math
import os
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from tricode.mcg import dehn_twist_matrix, humphries_curve
from tricode.snf import det, identity, matmul, smith_normal_form


def minor_gcd_diagonal(M):
    """Independent oracle: A(i) = D(i)/D(i-1) with D(i) the gcd of all i x i
    minor determinants."""
    rows, cols = len(M), len(M[0])
    n = min(rows, cols)
    out = []
    prev = 1
    for size in range(1, n + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), size):
            for csel in itertools.combinations(range(cols), size):
                sub = [[M[r][c] for c in csel] for r in rsel]
                g = math.gcd(g, det(sub))
        if g == 0:
            out.extend([0] * (n - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


def random_unimodular(n, rng):
    U = identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        for t in range(n):
            U[i][t] += q * U[j][t]
    return U


def test_identity_snf():
    res = smith_normal_form(identity(3))
    assert res.diagonal == [1, 1, 1]


def test_t5_power_regression():
    T5 = dehn_twist_matrix(humphries_curve("t5"), 2)
    for a in (1, 2, 5, 100):
        M = identity(4)
        for _ in range(a):
            M = matmul(M, T5)
        delta = [[M[i][j] - (1 if i == j else 0) for j in range(4)] for i in range(4)]
        res = smith_normal_form(delta)
        assert res.diagonal == [a, 0, 0, 0]


def test_random_matrices_against_minor_gcd_oracle():
    rng = random.Random(42)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(M)
        assert res.diagonal == minor_gcd_diagonal(M)


def test_divisibility_and_unimodularity():
    rng = random.Random(7)
    for _ in range(40):
        M = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        res = smith_normal_form(M)
        nz = [d for d in res.diagonal if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert abs(det(res.P)) == 1 and abs(det(res.Q)) == 1


def test_invariant_under_unimodular_multiplication():
    rng = random.Random(13)
    for _ in range(25):
        M = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        U = random_unimodular(4, rng)
        V = random_unimodular(4, rng)
        assert smith_normal_form(M).diagonal == smith_normal_form(matmul(matmul(U, M), V)).diagonal


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3))
def test_snf_property(entries):
    res = smith_normal_form(entries)
    assert res.diagonal == minor_gcd_diagonal(entries)


def test_large_entries_exact():
    # arbitrary-precision path: twist powers overflow fixed width quickly
    T5 = dehn_twist_matrix(humphries_curve("t5"), 2)
    M = identity(4)
    for _ in range(10 ** 4):
        M = matmul(M, T5)
    delta = [[M[i][j] - (1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert smith_normal_form(delta).diagonal == [10 ** 4, 0, 0, 0]


SELF_CHECKS_UNDER_O = """
from tricode import mcg, snf
M = [[2, 4], [6, 8]]
good = snf.smith_normal_form(M)
for bad in (snf.SnfResult([2, 5], good.P, good.Q),
            snf.SnfResult([0, 2], good.P, good.Q),
            snf.SnfResult(good.diagonal, [[2, 0], [0, 1]], good.Q)):
    try:
        snf._verify(M, bad, 2, 2)
    except RuntimeError:
        pass
    else:
        raise SystemExit("corrupt SNF passed its verification")
mcg.is_symplectic = lambda M, g: False
try:
    mcg.dehn_twist_matrix([1, 0, 0, 0], 2)
except RuntimeError:
    pass
else:
    raise SystemExit("non-symplectic twist passed its self-check")
"""


def test_self_checks_raise_under_O():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECKS_UNDER_O],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
