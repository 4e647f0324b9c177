"""The sparse GF(2) kernels, the arithmetic barycentric subdivision and the
color code's flag incidences against the dense routes they replaced.

``dense_nullspace`` reads every column of every RREF row, ``scan_extend_basis``
reduces each candidate by every basis row, ``gauss_jordan_invert`` sweeps
pivot columns with row swaps, and ``builder_subdivide`` keys every flag by
its cell and subset chain and recomputes chains and iterated faces per
simplex.  The split code-space check, whose Z, S and T terms take
``_pull_back_linear``, is checked against one ``pull_back`` of every
monomial.  The color code's checks are checked against ``walked_checks``,
which reads each flag's vertices and edges off the faces of
``barycentric_subdivide``; its logical bases (``gf2.quotient_bases``,
from forward echelons) against ``extend_basis`` over both full kernels of
the RREFs; and its sign table against ``flag_sign`` per flag of the
subdivision.  The fast paths must agree with them exactly.
"""

import itertools
import random
import sys
import time
from typing import NamedTuple

import pytest

from tricode import complexes, gates
from tricode.codes import CssCode, color_code
from tricode.complexes import barycentric_subdivide, orientation_signs
from tricode.gates import (DiagonalCircuit, PhasePolynomial, _kernel_generators,
                           _pull_back_linear, check_logical_gate, extract_logical_action,
                           pull_back, transversal_t)
from tricode.gf2 import (BitMatrix, dual_basis, echelon, extend_basis, invert,
                         kernel_completion, null_vectors, quotient_bases, remainder, top_pivots,
                         vec_from_support)

from conftest import _Builder, gf2_product, kernel_from_rref, row_reduce
from test_local_check import random_circuit, random_code, t3_cover


# -- references ------------------------------------------------------------------


def dense_nullspace(m: BitMatrix) -> list[int]:
    basis, pivots = row_reduce(m.rows)
    pivot_set = set(pivots)
    out = []
    for j in range(m.ncols):
        if j in pivot_set:
            continue
        v = 1 << j
        for row, p in zip(basis, pivots):
            if (row >> j) & 1:
                v |= 1 << p
        out.append(v)
    return out


def scan_extend_basis(old_rows: list[int], candidates: list[int]) -> list[int]:
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


def gauss_jordan_invert(rows: list[int], n: int) -> list[int] | None:
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


class FlagSubdivision(NamedTuple):
    complex: complexes.DeltaComplex
    # per dimension, per simplex: the chain of original cells of the flag
    cell_chain: list[list[tuple]]
    # per dimension, per simplex: the chain of vertex-position subsets
    subset_chain: list[list[tuple[frozenset, ...]]]


def builder_subdivide(K: complexes.DeltaComplex) -> FlagSubdivision:
    dims = K.dims
    b = _Builder(dims)

    def chains_under(p: int, length: int):
        full = frozenset(range(p + 1))
        if length == 0:
            return [(full,)]
        proper = [
            frozenset(sub)
            for r in range(1, p + 1)
            for sub in itertools.combinations(range(p + 1), r)
        ]
        out = []

        def rec(chain):
            if len(chain) == length:
                out.append(tuple(chain) + (full,))
                return
            for fs in proper:
                if fs > chain[-1]:
                    rec(chain + [fs])

        for fs in proper:
            rec([fs])
        return out

    def face_key(p: int, s: int, chain, i: int):
        n = len(chain) - 1
        if i < n:
            return (p, s, chain[:i] + chain[i + 1:])
        newtop = chain[n - 1]
        d, idx = K.iterated_face(p, s, tuple(sorted(newtop)))
        relabel = {v: k for k, v in enumerate(sorted(newtop))}
        newchain = tuple(frozenset(relabel[v] for v in A) for A in chain[:n])
        return (d, idx, newchain)

    for p in range(dims + 1):
        for s in range(K.n_cells(p)):
            for n in range(p + 1):
                for chain in chains_under(p, n):
                    key = (p, s, chain)
                    if n == 0:
                        b.add(0, key)
                    else:
                        b.add(n, key, tuple(face_key(p, s, chain, i) for i in range(n + 1)))
    sd = b.freeze({(0, i): f"bary:{K.label(p, s)}" for (p, s, _), i in b.index[0].items()})
    cell_chain = [[] for _ in range(dims + 1)]
    subset_chain = [[] for _ in range(dims + 1)]
    for n in range(dims + 1):
        cell_chain[n] = [()] * sd.n_cells(n)
        subset_chain[n] = [()] * sd.n_cells(n)
        for (p, s, chain), i in b.index[n].items():
            cell_chain[n][i] = tuple(K.iterated_face(p, s, tuple(sorted(A))) for A in chain)
            subset_chain[n][i] = chain
    return FlagSubdivision(sd, cell_chain, subset_chain)


# -- kernels on random matrices ----------------------------------------------------


def random_matrix(rng: random.Random, nrows: int, ncols: int, kind: str) -> BitMatrix:
    if kind == "zero rows":
        rows = [0 if rng.random() < 0.5 else rng.getrandbits(ncols) for _ in range(nrows)]
    elif kind == "full rank":
        # row i has lowest bit i, so the rows are independent
        rows = [(1 << i) | (rng.getrandbits(ncols) >> (i + 1) << (i + 1)) for i in range(nrows)]
        rng.shuffle(rows)
    elif kind == "sparse":
        rows = [sum(1 << j for j in range(ncols) if rng.random() < 0.15) for _ in range(nrows)]
    else:
        rows = [rng.getrandbits(ncols) if ncols else 0 for _ in range(nrows)]
    return BitMatrix(nrows, ncols, rows)


SHAPES = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 17), (17, 3), (12, 12), (8, 70), (70, 8), (40, 40)]
KINDS = ["dense", "zero rows", "full rank", "sparse"]
ANY_SHAPE = ["dense", "zero rows", "sparse"]  # "full rank" needs nrows <= ncols


def matrices(seed: int):
    rng = random.Random(seed)
    for (r, c), kind in itertools.product(SHAPES, KINDS):
        if kind == "full rank" and r > c:
            continue
        for _ in range(3):
            yield random_matrix(rng, r, c, kind)


def test_nullspace_matches_dense_reference():
    for m in matrices(3):
        ker = m.nullspace()
        assert ker == dense_nullspace(m)
        assert len(ker) == m.ncols - m.rank()
        assert all(m.matvec(v) == 0 for v in ker)


def test_extend_basis_matches_scan_reference():
    rng = random.Random(4)
    for m in matrices(5):
        cands = random_matrix(rng, rng.randrange(0, 20), m.ncols, rng.choice(ANY_SHAPE)).rows
        cands += [rng.choice(m.rows) ^ rng.choice(m.rows)] if m.rows else []
        got = extend_basis(m.rows, cands)
        assert got == scan_extend_basis(m.rows, cands)
        assert extend_basis(row_reduce(m.rows)[0], cands) == got
        assert not extend_basis(m.rows, m.rows)
        full = m.rows + got
        assert not extend_basis(full, cands)
        assert len(row_reduce(full)[0]) == len(row_reduce(m.rows)[0]) + len(got)


def span_of(rows: list[int]) -> set[int]:
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


def test_echelon_helpers_match_rref_references():
    rng = random.Random(7)
    for m in matrices(8):
        basis, pivots = row_reduce(m.rows)
        by_pivot = echelon(m.rows)
        assert sorted(by_pivot) == pivots
        free = [j for j in range(m.ncols) if j not in by_pivot]
        assert null_vectors(by_pivot, free) == kernel_from_rref(basis, pivots, m.ncols)
        picked = rng.sample(free, min(len(free), 3))
        assert null_vectors(by_pivot, picked) == [kernel_from_rref(basis, pivots, m.ncols)[
            free.index(j)] for j in picked]
        mask = vec_from_support(pivots)
        for x in random_matrix(rng, 5, m.ncols, "dense").rows:
            want = x
            for row, p in zip(basis, pivots):
                if x >> p & 1:
                    want ^= row
            assert remainder(by_pivot, x, mask) == want
        if m.nrows <= 12:
            assert top_pivots(m.rows) == {v.bit_length() - 1 for v in span_of(m.rows) if v}


def test_invert_matches_gauss_jordan_reference():
    rng = random.Random(6)
    seen = set()
    for _ in range(3000):
        n = rng.randint(0, 12)
        kind = rng.choice(KINDS)
        rows = random_matrix(rng, n, n, kind).rows
        if kind == "dense" and n > 1 and rng.random() < 0.3:
            rows[rng.randrange(n)] = rng.choice(rows) ^ rng.choice(rows)  # often singular
        got = invert(rows, n)
        assert got == gauss_jordan_invert(rows, n)
        seen.add(got is None)
        if got is not None:
            cols = BitMatrix(n, n, got).transpose().rows
            assert gf2_product(rows, cols) == [1 << i for i in range(n)]
    assert seen == {True, False}


def test_invert_rejects_wide_rows():
    with pytest.raises(ValueError, match="bit at or above column 2"):
        invert([0b01, 0b110], 2)


# -- subdivision -------------------------------------------------------------------


def _mapping_torus():
    base = complexes.build_sigma_g_rotsym(2)
    return complexes.mapping_torus(base, complexes.rotation_automorphism(base, 2, 1), 1)


SUBDIVIDED = {
    "T3": complexes.build_torus3,
    "sd(T3)": lambda: barycentric_subdivide(complexes.build_torus3()).complex,
    "sigma-rot:2 mapping torus": _mapping_torus,
    "Sigma_2 x S1": lambda: complexes.product_with_circle(complexes.build_sigma_g(2), 1),
    "T3 L=2 cover": lambda: t3_cover(2),
    "Sigma_1": lambda: complexes.build_sigma_g(1),
    "point": complexes.build_point,
}


@pytest.mark.parametrize("name", list(SUBDIVIDED))
def test_subdivision_matches_builder_reference(name):
    K = SUBDIVIDED[name]()
    got, want = barycentric_subdivide(K).complex, builder_subdivide(K).complex
    assert got == want
    assert got.cycles == {}


# -- the degree-1 pullback --------------------------------------------------------


def unsplit_check(circuit: DiagonalCircuit, code: CssCode, monkeypatch) -> gates.GateCheck:
    """check_logical_gate with the Z, S and T terms expanded by ``pull_back``
    like every other monomial: the route before the split."""
    with monkeypatch.context() as m:
        m.setattr(gates, "_pull_back_linear", lambda coeffs, gens, masks: pull_back(coeffs, masks))
        return check_logical_gate(circuit, code)


def random_sparse_code(rng: random.Random) -> CssCode:
    """A CSS code on 12..40 qubits with sparse X checks, so that generators
    overlap in pairs and triples; logical X strings half of the time, else
    the spanning set is completed.  Now and then a logical X is bent off
    ker hz, in place or as an extra copy (so that the rest still span)."""
    n = rng.randint(12, 40)
    hx_rows = [0] * rng.randint(2, 8)
    for i in range(len(hx_rows)):
        for q in rng.sample(range(n), rng.randint(2, max(2, n // 3))):
            hx_rows[i] |= 1 << q
    hx = BitMatrix(len(hx_rows), n, hx_rows)
    null = hx.nullspace()
    rng.shuffle(null)
    hz_rows = null[: rng.randint(0, len(null))]
    hz = BitMatrix(len(hz_rows), n, hz_rows)
    lx = lz = []
    if rng.random() < 0.5:
        lx = extend_basis(row_reduce(hx_rows)[0], hz.nullspace())
        lz = extend_basis(row_reduce(hz_rows)[0], hx.nullspace())
        if lx and rng.random() < 0.5:
            bent = lx[0] ^ 1 << rng.randrange(n)
            lx, lz = ([bent] + lx[1:], lz) if rng.random() < 0.5 else (lx + [bent], lz + [0])
    return CssCode(n, hx, hz, lx, lz, {})


def random_mixed_circuit(rng: random.Random, code: CssCode) -> DiagonalCircuit:
    """Z, S, Sdg, T and Tdg on many qubits plus a few CZ and CCZ.  Half of
    the time the one-qubit part is a sum of T layers on X-stabilizer rows
    and CCZs on triples, which the check passes more often."""
    n = code.n
    kinds = ["Z", "S", "Sdg", "T", "Tdg"]
    gates_ = [(rng.choice(kinds), (q,)) for q in rng.sample(range(n), rng.randint(1, n))]
    if rng.random() < 0.5:
        gates_ = [(rng.choice(("T", "Tdg")), (q,)) for q in range(n)]
    for _ in range(rng.randint(0, 3)):
        gates_.append(("CZ", tuple(rng.sample(range(n), 2))))
    for _ in range(rng.randint(0, 3)):
        gates_.append(("CCZ", tuple(rng.sample(range(n), 3))))
    return DiagonalCircuit(n, gates_)


def test_kernel_generator_masks_describe_the_generators():
    rng = random.Random(8)
    for _ in range(200):
        code = random_sparse_code(rng) if rng.random() < 0.5 else random_code(rng)
        gens, masks, _ = _kernel_generators(code)
        assert masks == BitMatrix(len(gens), code.n, gens).transpose().rows


def test_split_pullback_matches_full_pullback_on_random_codes(monkeypatch):
    rng = random.Random(1209)
    seen, kinds = set(), set()
    for trial in range(400):
        code = random_sparse_code(rng) if trial % 2 else random_code(rng)
        circ = random_mixed_circuit(rng, code) if trial % 3 else random_circuit(rng, code.n)
        gens, masks, _ = _kernel_generators(code)
        coeffs = PhasePolynomial.from_circuit(circ).coeffs
        linear = {S: c for S, c in coeffs.items() if len(S) == 1}
        assert _pull_back_linear(linear, gens, masks) == pull_back(linear, masks)
        chk = check_logical_gate(circ, code)
        assert chk == unsplit_check(circ, code, monkeypatch)
        seen.add(chk.status)
        kinds |= {kind for kind, _ in circ.gates}
    assert seen == {"PASS", "FAIL"}
    assert kinds == set(gates.GATE_COEFF)


@pytest.mark.parametrize("name", ["T3", "sigma-rot:2 mapping torus"])
def test_split_pullback_matches_full_pullback_on_t_layers(name, monkeypatch):
    code = color_code(SUBDIVIDED[name]())
    layer = transversal_t(code).gates
    rng = random.Random(13)
    circuits = [layer, [("Tdg" if k == "T" else "T", qs) for k, qs in layer],
                [("S" if k == "T" else "Sdg", qs) for k, qs in layer]]
    for trial in range(24):
        g = list(layer)
        for q in rng.sample(range(code.n), 1 + trial % 3):
            g[q] = (rng.choice(["Tdg" if g[q][0] == "T" else "T", "S", "Sdg", "Z"]), g[q][1])
        if trial % 4 == 0:
            g.append(("CCZ", tuple(rng.sample(range(code.n), 3))))
        circuits.append(g)
    statuses = []
    for g in circuits:
        circ = DiagonalCircuit(code.n, g)
        chk = check_logical_gate(circ, code)
        assert chk == unsplit_check(circ, code, monkeypatch)
        if chk.passed:
            assert extract_logical_action(circ, code, chk).gate_list() == \
                extract_logical_action(circ, code, unsplit_check(circ, code, monkeypatch)).gate_list()
        statuses.append(chk.status)
    assert statuses[:3] == ["PASS"] * 3 and "FAIL" in statuses


# -- the color code's checks, logicals and signs ---------------------------------------


def walked_checks(K: complexes.DeltaComplex) -> tuple[BitMatrix, BitMatrix]:
    """hx and hz of the color code read off the faces of the subdivision: a
    flag's 6 edges are the 3 edges of its face 0 (vertices 123), edges 02 and
    01 of its face 3 (vertices 012) and edge 03 of its face 1 (023); its 4
    vertices are the ends of edges 23 and 01."""
    sd = barycentric_subdivide(K).complex
    f1, f2, f3 = sd.face[1], sd.face[2], sd.face[3]
    n = sd.n_cells(3)
    vert_rows = [0] * sd.n_cells(0)
    edge_rows = [0] * sd.n_cells(1)
    for s in range(n):
        bit = 1 << s
        t0, t1, _, t3 = f3[s]
        e23, e13, e12 = f2[t0]
        _, e02, e01 = f2[t3]
        for e in (e23, e13, e12, e02, e01, f2[t1][1]):
            edge_rows[e] |= bit
        for v in f1[e23] + f1[e01]:
            vert_rows[v] |= bit
    return BitMatrix(len(vert_rows), n, vert_rows), BitMatrix(len(edge_rows), n, edge_rows)


def flag_permutation(sub: FlagSubdivision, n: int, s: int) -> tuple[int, ...]:
    """Insertion order of vertex positions along a full flag."""
    chain = sub.subset_chain[n][s]
    prev: frozenset = frozenset()
    out = []
    for A in chain:
        new = A - prev
        if len(new) != 1:
            raise ValueError("not a full flag")
        out.append(next(iter(new)))
        prev = A
    return tuple(out)


def flag_sign(sub: FlagSubdivision, n: int, s: int) -> int:
    """Parity (+1/-1) of the permutation ordering the flag's cell chain."""
    perm = flag_permutation(sub, n, s)
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def reference_logicals(hx: BitMatrix, hz: BitMatrix) -> tuple[list[int], list[int]]:
    """(lx before dualising, lz) as extend_basis over both full kernels picks them."""
    hx_rref, hz_rref = row_reduce(hx.rows), row_reduce(hz.rows)
    lx = extend_basis(hx_rref[0], kernel_from_rref(*hz_rref, hx.ncols))
    return lx, extend_basis(hz_rref[0], kernel_from_rref(*hx_rref, hx.ncols))


COLOR_COMPLEXES = ["T3", "sd(T3)", "sigma-rot:2 mapping torus", "Sigma_2 x S1", "T3 L=2 cover"]


@pytest.mark.parametrize("name", COLOR_COMPLEXES)
def test_color_code_logicals_and_signs_match_references(name):
    K = SUBDIVIDED[name]()
    code = color_code(K)
    hx, hz = walked_checks(K)
    assert (code.hx, code.hz) == (hx, hz)
    lx, lz = reference_logicals(hx, hz)
    assert code.logical_z == lz
    assert code.logical_x == dual_basis(lx, lz)
    assert quotient_bases(hx.rows, hz.rows, code.n) == (lx, lz)
    sub, eps = builder_subdivide(K), orientation_signs(K)
    assert code.meta["signs"] == [flag_sign(sub, 3, s) * eps[sub.cell_chain[3][s][-1][1]]
                                  for s in range(code.n)]


def test_kernel_picks_match_extend_basis_on_random_codes():
    rng = random.Random(31)
    ks = set()
    for _ in range(300):
        code = random_sparse_code(rng)
        lx, lz = reference_logicals(code.hx, code.hz)
        assert quotient_bases(code.hx.rows, code.hz.rows, code.n) == (lx, lz)
        ks.add(len(lz))
        # rows inside ker hz: some stabilizers plus some logicals and their sums
        rows = [r for r in code.hx.rows if rng.random() < 0.7]
        rows += [x ^ y for x, y in zip(lx, lx[1:] + lx[:1]) if rng.random() < 0.5]
        assert kernel_completion(rows, code.hz.rows, code.n) == extend_basis(
            rows, kernel_from_rref(*row_reduce(code.hz.rows), code.n))
    assert len(ks) > 5


def test_color_code_runs_no_rref_kernel_or_subdivision(monkeypatch):
    built = {name: SUBDIVIDED[name]() for name in COLOR_COMPLEXES}
    want = {name: color_code(K) for name, K in built.items()}

    def refuse(*args):
        raise AssertionError("the color code took a route it should not")

    tricode = [mod for name, mod in sys.modules.items() if name.startswith("tricode")]
    assert not [mod for mod in tricode for fn in ("row_reduce", "kernel_from_rref")
                if hasattr(mod, fn)]  # the RREF route is gone from the package
    for mod in tricode:
        if hasattr(mod, "barycentric_subdivide"):
            monkeypatch.setattr(mod, "barycentric_subdivide", refuse)
    with pytest.raises(AssertionError):
        complexes.barycentric_subdivide(built["T3"])
    for name, K in built.items():
        assert color_code(K) == want[name]


# -- a ladder rung --------------------------------------------------------------------


def test_t3_cover_3_color_code_rung():
    t0 = time.perf_counter()
    code = color_code(t3_cover(3))
    circ = transversal_t(code)
    chk = check_logical_gate(circ, code)
    act = extract_logical_action(circ, code, chk)
    elapsed = time.perf_counter() - t0
    assert (code.n, code.k) == (3888, 9)
    assert chk.status == "PASS"
    gates = act.gate_list()
    assert len(gates) == 6 and all(kind == "CCZ" for kind, _ in gates)
    assert elapsed < 10.0, f"T^3 L = 3 color-code rung took {elapsed:.1f}s"


def test_t3_cover_4_color_code_rung():
    t0 = time.perf_counter()
    code = color_code(t3_cover(4))
    circ = transversal_t(code)
    chk = check_logical_gate(circ, code)
    act = extract_logical_action(circ, code, chk)
    elapsed = time.perf_counter() - t0
    assert (code.n, code.k) == (9216, 9)
    assert chk.status == "PASS"
    gates = act.gate_list()
    assert len(gates) == 6 and all(kind == "CCZ" for kind, _ in gates)
    assert elapsed < 10.0, f"T^3 L = 4 color-code rung took {elapsed:.1f}s"
