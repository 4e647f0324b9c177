"""The local code-space check against its dense reference.

``check_logical_gate`` decides code-space preservation over a local spanning
set of ker hz.  The references here are the dense routes it replaced:
``PhasePolynomial.vanishes_on_span`` of each stabilizer's full residual over
a nullspace basis of hz ({Z, CZ, CCZ} circuits), and
``_signed_overlap_criterion`` over that basis (+-T layers).
"""

import random
import time

import pytest

from tricode import complexes, homology
from tricode.codes import CssCode, color_code, systole_bfs, toric_code
from tricode.gates import (
    DiagonalCircuit,
    PhasePolynomial,
    _kernel_generators,
    _local_residual,
    _signed_overlap_criterion,
    ccz_circuit,
    check_logical_gate,
    cz_membrane_circuit,
    extract_logical_action,
    pull_back,
    transversal_t,
)
from tricode.gf2 import BitMatrix, row_reduce


def t3_cover(L: int) -> complexes.DeltaComplex:
    """The T^3 L-cover: cyclic_cover three times with m = L, along the a, b
    and c direction cocycles pulled back through sheet_projection."""
    K = complexes.build_torus3()
    letters = [K.labels[(1, e)] for e in range(K.n_cells(1))]
    cur = K
    for direction in "abc":
        cochain = {e: 1 for e, lab in enumerate(letters) if direction in lab}
        cover, _ = complexes.cyclic_cover(cur, cochain, L)
        proj = complexes.sheet_projection(cur, cover, L)[1]
        letters = [letters[proj[e]] for e in range(cover.n_cells(1))]
        cur = cover
    return cur


def dense_first_failure(circ: DiagonalCircuit, code: CssCode) -> int | None:
    """Index of the first X stabilizer whose full residual does not vanish on
    a nullspace basis of hz, or None when every one vanishes."""
    f = PhasePolynomial.from_circuit(circ)
    zbasis = code.hz.nullspace()
    for idx, x in enumerate(code.hx.rows):
        if not f.shifted(x).minus(f).vanishes_on_span(zbasis)[0]:
            return idx
    return None


def assert_agrees_with_dense(circ: DiagonalCircuit, code: CssCode):
    chk = check_logical_gate(circ, code)
    bad = dense_first_failure(circ, code)
    assert chk.passed == (bad is None)
    if not chk.passed:
        assert (chk.status, chk.mode) == ("FAIL", "polarization")
        assert chk.witness_stabilizer == bad
        f = PhasePolynomial.from_circuit(circ)
        res = f.shifted(code.hx.rows[bad]).minus(f)
        assert code.hz.matvec(chk.witness_vector) == 0
        assert res.evaluate(chk.witness_vector) != 0
    return chk


def drop(circ: DiagonalCircuit, i: int) -> DiagonalCircuit:
    return DiagonalCircuit(circ.n, circ.gates[:i] + circ.gates[i + 1:])


# -- building blocks -------------------------------------------------------------


def test_local_residual_equals_full_shift(t2xs1_2layers):
    K = t2xs1_2layers
    code = toric_code(K, 3)
    rng = random.Random(7)
    circ = DiagonalCircuit(code.n, ccz_circuit(K).gates
                           + [("CZ", (0, 5)), ("Z", (3,)), ("CCZ", (1, 2, 40))])
    f = PhasePolynomial.from_circuit(circ)
    by_qubit = [[] for _ in range(code.n)]
    for S in f.coeffs:
        for q in S:
            by_qubit[q].append(S)
    for x in code.hx.rows + [rng.getrandbits(code.n) for _ in range(10)]:
        full = f.shifted(x).minus(f)
        assert set(full.coeffs.values()) <= {4}
        assert _local_residual(by_qubit, x) == set(full.coeffs)


def test_pull_back_matches_evaluation():
    # the pulled-back ANF evaluates like the polynomial at the image point,
    # mod 8; with every coefficient 4 it is the GF(2) pullback (parity * 4)
    rng = random.Random(11)
    for trial in range(80):
        n, m = 6, 4
        gens = [rng.getrandbits(n) for _ in range(m)]
        masks = [sum(1 << a for a in range(m) if (gens[a] >> q) & 1) for q in range(n)]
        monos = {frozenset(rng.sample(range(n), rng.randint(0, 3))) for _ in range(5)}
        coeffs = {S: 4 if trial % 2 else rng.choice((1, 2, 4)) for S in monos}
        pulled = pull_back(coeffs, masks)
        if trial % 2:
            assert set(pulled.values()) <= {4}
        for y in range(1 << m):
            z = 0
            for a in range(m):
                if (y >> a) & 1:
                    z ^= gens[a]
            want = sum(c for S, c in coeffs.items() if all((z >> q) & 1 for q in S)) % 8
            got = sum(c for t, c in pulled.items() if t & y == t) % 8
            assert got == want


# -- differential tests against the dense reference -------------------------------


def test_every_ccz_drop_fails_on_t3_cover_2():
    K = t3_cover(2)
    code = toric_code(K, 3)
    circ = ccz_circuit(K)
    assert len(circ.gates) == 48
    for i in range(len(circ.gates)):
        assert assert_agrees_with_dense(drop(circ, i), code).status == "FAIL"


def test_every_ccz_drop_on_sigma2_circle_2_layers():
    K = complexes.product_with_circle(complexes.build_sigma_g(2), 2)
    code = toric_code(K, 3)
    circ = ccz_circuit(K)
    verdicts = [assert_agrees_with_dense(drop(circ, i), code).status
                for i in range(len(circ.gates))]
    assert (verdicts.count("PASS"), verdicts.count("FAIL")) == (12, 24)


def test_random_ccz_circuits_agree(t2xs1_2layers, s2xs1):
    rng = random.Random(404)
    for K in (t2xs1_2layers, s2xs1):
        code = toric_code(K, 3)
        base = ccz_circuit(K).gates
        for _ in range(15):
            extra = [("CCZ", tuple(rng.sample(range(code.n), 3)))
                     for _ in range(rng.randint(1, 3))]
            keep = [g for g in base if rng.random() < 0.9]
            assert_agrees_with_dense(DiagonalCircuit(code.n, keep + extra), code)


def test_non_cycle_membranes_agree(t2xs1_2layers):
    K = t2xs1_2layers
    code = toric_code(K, 3)
    boundaries = homology.boundary_space(K, 2)
    rng = random.Random(5)
    fails = 0
    for _ in range(12):
        z = rng.choice(boundaries) ^ (1 << rng.randrange(K.n_cells(2)))
        circ = cz_membrane_circuit(K, z, tuple(rng.sample((1, 2, 3), 2)), check=False)
        fails += assert_agrees_with_dense(circ, code).status == "FAIL"
    assert fails >= 1


def test_every_t_flip_on_t3_color_code():
    code = color_code(complexes.build_torus3())
    circ = transversal_t(code)
    zbasis = code.hz.nullspace()
    assert check_logical_gate(circ, code).passed
    for i, (kind, qs) in enumerate(circ.gates):
        gates = list(circ.gates)
        gates[i] = ("Tdg" if kind == "T" else "T", qs)
        flipped = DiagonalCircuit(circ.n, gates)
        dense = _signed_overlap_criterion(PhasePolynomial.from_circuit(flipped), code, zbasis)
        chk = check_logical_gate(flipped, code)
        assert dense is not None and not dense[0]
        assert (chk.status, chk.mode) == ("INCONCLUSIVE", "sufficient-criterion")
        # the same stabilizer breaks the criterion over either spanning set
        assert chk.detail.split(":")[0].split(",")[0] == dense[1].split(":")[0].split(",")[0]


def per_bit_signed_overlap(f, code, zbasis):
    """The signed-overlap criterion with per-bit signed sums over every
    pair of supports: the reference for the masked, local version."""
    sign = {}
    for S, c in f.coeffs.items():
        if c not in (1, 7) or len(S) != 1:
            return None
        sign[min(S)] = 1 if c == 1 else -1
    if len(sign) != code.n:
        return None

    def sw(v):
        return sum(sign[i] for i in range(code.n) if (v >> i) & 1)

    for gi, x in enumerate(code.hx.rows):
        if sw(x) % 8:
            return False, f"stabilizer {gi}: signed weight {sw(x)} != 0 mod 8"
        for a, za in enumerate(zbasis):
            if sw(x & za) % 4:
                return False, f"stabilizer {gi}, support {a}: overlap != 0 mod 4"
        for a in range(len(zbasis)):
            for b in range(a + 1, len(zbasis)):
                if sw(x & zbasis[a] & zbasis[b]) % 2:
                    return False, f"stabilizer {gi}: triple overlap ({a},{b}) odd"
    return True, ""


def test_signed_overlap_matches_per_bit_reference():
    rng = random.Random(17)
    branches = set()
    for _ in range(3000):
        n = rng.randint(4, 10)
        hx_rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
        zbasis = [rng.getrandbits(n) for _ in range(rng.randint(1, 5))]
        code = CssCode(n, BitMatrix(len(hx_rows), n, hx_rows), BitMatrix(0, n, []), [], [], {})
        f = PhasePolynomial.from_circuit(DiagonalCircuit(
            n, [(rng.choice(("T", "Tdg")), (q,)) for q in range(n)]))
        got = _signed_overlap_criterion(f, code, zbasis)
        assert got == per_bit_signed_overlap(f, code, zbasis)
        branches.add(got[1].split(" ")[2] if not got[0] else "pass")
    assert branches == {"signed", "support", "triple", "pass"}


# -- completing the spanning set --------------------------------------------------


def random_css(rng) -> CssCode:
    n = rng.randint(5, 9)
    hx_rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 2))]
    hx = BitMatrix(len(hx_rows), n, hx_rows)
    null = hx.nullspace()
    rng.shuffle(null)
    hz_rows = null[: rng.randint(1, max(1, len(null)))]
    return CssCode(n, hx, BitMatrix(len(hz_rows), n, hz_rows), [], [], {})


def kernel_generators(code: CssCode) -> list[int]:
    return _kernel_generators(code, code.n - code.hz.rank())


def assert_spans_kernel(code: CssCode):
    gens = kernel_generators(code)
    assert all(code.hz.matvec(g) == 0 for g in gens)
    assert row_reduce(gens) == row_reduce(code.hz.nullspace())


def test_codes_without_logicals_get_the_dense_verdict():
    rng = random.Random(99)
    seen = set()
    for _ in range(150):
        code = random_css(rng)
        assert_spans_kernel(code)
        gates = [("CCZ", tuple(rng.sample(range(code.n), 3))) for _ in range(rng.randint(1, 3))]
        gates += [("CZ", tuple(rng.sample(range(code.n), 2)))] * rng.randint(0, 1)
        seen.add(assert_agrees_with_dense(DiagonalCircuit(code.n, gates), code).status)
        signs = [rng.choice(("T", "Tdg")) for _ in range(code.n)]
        t_layer = DiagonalCircuit(code.n, [(s, (q,)) for q, s in enumerate(signs)])
        dense = _signed_overlap_criterion(PhasePolynomial.from_circuit(t_layer), code,
                                          code.hz.nullspace())
        chk = check_logical_gate(t_layer, code, exhaustive_budget=1)
        assert chk.mode == "sufficient-criterion"
        assert chk.passed == dense[0]
    assert seen == {"PASS", "FAIL"}


def test_toric_code_with_a_logical_dropped():
    K = t3_cover(2)
    code = toric_code(K, 3)
    short = CssCode(code.n, code.hx, code.hz, code.logical_x[1:], code.logical_z[1:], {})
    assert_spans_kernel(short)
    assert len(kernel_generators(short)) == len(kernel_generators(code))
    circ = ccz_circuit(K)
    assert assert_agrees_with_dense(circ, short).passed
    for i in (0, 17, 47):
        assert assert_agrees_with_dense(drop(circ, i), short).status == "FAIL"


def test_logical_outside_ker_hz(t2xs1_2layers):
    K = t2xs1_2layers
    code = toric_code(K, 3)
    lx = list(code.logical_x)
    lx[0] ^= 1 << 0  # one extra edge: the string now has a Z-syndrome
    assert code.hz.matvec(lx[0]) != 0
    bent = CssCode(code.n, code.hx, code.hz, lx, code.logical_z, {})
    assert_spans_kernel(bent)
    assert lx[0] not in kernel_generators(bent)
    circ = ccz_circuit(K)
    assert assert_agrees_with_dense(circ, bent).passed
    for i in (0, 7, 20):
        assert_agrees_with_dense(drop(circ, i), bent)


# -- guards -----------------------------------------------------------------------


def test_size_mismatch_raises(t3):
    circ = ccz_circuit(t3)
    with pytest.raises(ValueError, match="21 qubits but the code has 7"):
        check_logical_gate(circ, toric_code(t3, 1))
    with pytest.raises(ValueError):
        extract_logical_action(circ, toric_code(t3, 1))


def test_other_guards_raise():
    with pytest.raises(ValueError):
        DiagonalCircuit(2).compose(DiagonalCircuit(3))
    with pytest.raises(ValueError):
        PhasePolynomial.from_circuit(DiagonalCircuit(1, [("T", (0,))])).vanishes_on_span([1])


# -- a ladder rung --------------------------------------------------------------------


def test_t3_cover_4_rung():
    t0 = time.perf_counter()
    K = t3_cover(4)
    code = toric_code(K, 3)
    circ = ccz_circuit(K)
    chk = check_logical_gate(circ, code)
    act = extract_logical_action(circ, code, chk)
    length, _ = systole_bfs(K)
    elapsed = time.perf_counter() - t0
    assert code.n == 1344
    assert (chk.status, chk.mode) == ("PASS", "polarization")
    gates = act.gate_list()
    assert len(gates) == 6 and all(kind == "CCZ" for kind, _ in gates)
    assert length == 4
    assert elapsed < 10.0, f"T^3 L = 4 rung took {elapsed:.1f}s"
