import itertools
import random
import time

import pytest

from tricode import homology
from tricode.codes import CssCode, color_code, toric_code
from tricode.complexes import (
    build_point,
    build_sigma_g,
    build_sigma_g_rotsym,
    mapping_torus,
    product_with_circle,
    rotation_automorphism,
)
from tricode.gates import (
    DiagonalCircuit,
    LogicalAction,
    PhasePolynomial,
    ccz_circuit,
    check_logical_gate,
    coset_simulate,
    cz_membrane_circuit,
    extract_logical_action,
    hypergraph_state_poly,
    logical_state_lift,
    pull_back,
    transversal_t,
)
from tricode.gf2 import BitMatrix, support, vec_from_support

from conftest import (Cochain, chain_spaces, check_logicals, degree, minus, named_dual_cocycles, shifted,
                      triple_cup_integral, unchecked_membrane_circuit)
from test_local_check import exact_coset_verdict, logical_phase


# -- phase polynomial algebra -------------------------------------------------


def test_phase_poly_from_gates():
    c = DiagonalCircuit(3, [("T", (0,)), ("Tdg", (1,)), ("S", (2,)), ("CCZ", (0, 1, 2))])
    p = PhasePolynomial.from_circuit(c)
    assert p.coeffs[frozenset({0})] == 1
    assert p.coeffs[frozenset({1})] == 7
    assert p.coeffs[frozenset({2})] == 2
    assert p.coeffs[frozenset({0, 1, 2})] == 4
    assert p.evaluate(0b111) == (1 + 7 + 2 + 4) % 8


def test_shift_is_involution():
    rng = random.Random(1)
    for _ in range(50):
        p = PhasePolynomial(5)
        for _ in range(4):
            size = rng.randint(1, 3)
            p._add(frozenset(rng.sample(range(5), size)), rng.randint(1, 7))
        x = rng.getrandbits(5)
        assert shifted(shifted(p, x), x).coeffs == p.coeffs


def test_shift_agrees_pointwise():
    rng = random.Random(2)
    for _ in range(30):
        p = PhasePolynomial(4)
        for _ in range(3):
            p._add(frozenset(rng.sample(range(4), rng.randint(1, 3))), rng.randint(1, 7))
        x = rng.getrandbits(4)
        q = shifted(p, x)
        for z in range(16):
            assert q.evaluate(z) == p.evaluate(z ^ x)


def test_circuit_poly_roundtrip():
    c = DiagonalCircuit(4, [("CCZ", (0, 1, 2)), ("CZ", (1, 3)), ("S", (0,)), ("Z", (2,))])
    back = PhasePolynomial.from_circuit(c).to_circuit()
    assert back.canonical().gates == c.canonical().gates


def conjugate_x(circuit: DiagonalCircuit, x: int) -> PhasePolynomial:
    """The diagonal layer of X(x) U X(x) for a diagonal U over {Z, CZ, CCZ}:
    the phase polynomial picks up f(z + x) - f(z), one degree lower."""
    f = PhasePolynomial.from_circuit(circuit)
    if any(c not in (0, 4) for c in f.coeffs.values()):
        raise ValueError("conjugate_x expects a {Z, CZ, CCZ} circuit (no S/T)")
    res = minus(shifted(f, x), f)
    if degree(res) > max(0, degree(f) - 1):
        raise ValueError("conjugation residual did not drop in degree")
    return res


def test_ccz_conjugation_gives_cz():
    c = DiagonalCircuit(3, [("CCZ", (0, 1, 2))])
    assert conjugate_x(c, 1 << 0).coeffs == {frozenset({1, 2}): 4}
    # X on two controls: CZ + two Z's + constant
    assert conjugate_x(c, 0b11).evaluate(0) in (0, 4)


def test_conjugate_rejects_t_circuits():
    with pytest.raises(ValueError):
        conjugate_x(DiagonalCircuit(1, [("T", (0,))]), 1)


def test_t_squared_is_s_layer(t3):
    code = color_code(t3)
    t = transversal_t(code)
    poly = PhasePolynomial.from_circuit(DiagonalCircuit(t.n, t.gates + t.gates))
    gates = poly.to_circuit().gates
    assert {k for k, _ in gates} == {"S", "Sdg"}
    assert len(gates) == code.n


# -- circuit builders ----------------------------------------------------------


def test_ccz_circuit_t3(t3):
    circ = ccz_circuit(t3)
    assert circ.n == 21
    assert len(circ.gates) == 6
    assert all(k == "CCZ" for k, _ in circ.gates)
    for _, (q1, q2, q3) in circ.gates:
        assert q1 < 7 <= q2 < 14 <= q3  # copy-1 front, copy-2 middle, copy-3 back


def test_ccz_circuit_empty_complex():
    assert ccz_circuit(build_point()).gates == []


def test_ccz_depth_constant_across_refinements():
    depths = []
    for layers in (1, 2, 3):
        K = product_with_circle(build_sigma_g(1), layers)
        depths.append(ccz_circuit(K).depth_bound())
    assert len(set(depths)) == 1  # refining does not grow the depth bound


def test_cz_membrane_counts(t3):
    _, cells = t3.cycles["axb"]
    circ = cz_membrane_circuit(t3, vec_from_support(cells), (1, 2))
    assert len(circ.gates) == len(cells)
    assert cz_membrane_circuit(t3, 0, (1, 3)).gates == []


def test_cz_membrane_rejects_non_cycle(t3):
    with pytest.raises(ValueError, match="not a 2-cycle"):
        cz_membrane_circuit(t3, 1 << 0, (1, 2))


def test_transversal_t_counts(t3):
    code = color_code(t3)
    circ = transversal_t(code)
    assert len(circ.gates) == 144
    kinds = [k for k, _ in circ.gates]
    assert kinds.count("T") == kinds.count("Tdg") == 72


def test_transversal_t_needs_bipartition(t3):
    with pytest.raises(ValueError):
        transversal_t(toric_code(t3, 1))


# -- code-space preservation ----------------------------------------------------


def test_ccz_check_passes(t3, t2xs1_2layers, s2xs1):
    for K in (t3, t2xs1_2layers, s2xs1):
        code = toric_code(K, 3)
        chk = check_logical_gate(ccz_circuit(K), code)
        assert chk.passed, (K.counts, chk.detail)


def test_ccz_check_nontrivial_stabilizers(t2xs1_2layers):
    code = toric_code(t2xs1_2layers, 3)
    assert any(code.hx.rows)
    chk = check_logical_gate(ccz_circuit(t2xs1_2layers), code)
    assert chk.passed and chk.mode == "pullback"


def test_non_cycle_membrane_fails_check(t2xs1_2layers):
    K = t2xs1_2layers
    code = toric_code(K, 3)
    bad = chain_spaces(K, 2)[1][0] ^ (1 << 0)
    circ = unchecked_membrane_circuit(K, bad, (1, 2))
    chk = check_logical_gate(circ, code)
    assert chk.status == "FAIL"
    assert chk.witness_stabilizer is not None


def test_transversal_t_color_code(t3):
    code = color_code(t3)
    chk = check_logical_gate(transversal_t(code), code)
    assert (chk.status, chk.mode, chk.detail) == ("PASS", "pullback", "")


def test_random_ccz_circuit_fails(t2xs1_2layers):
    rng = random.Random(23)
    code = toric_code(t2xs1_2layers, 3)
    fails = 0
    for _ in range(10):
        gates = [("CCZ", tuple(rng.sample(range(code.n), 3))) for _ in range(5)]
        chk = check_logical_gate(DiagonalCircuit(code.n, gates), code)
        fails += not chk.passed
    assert fails >= 8  # random circuits are logical almost never


# -- logical action --------------------------------------------------------------


def test_t3_logical_action_six_permutations(t3):
    code = toric_code(t3, 3)
    act = extract_logical_action(ccz_circuit(t3), code)
    got = {frozenset(qs) for _, qs in act.gate_list()}
    classes = ("axb", "bxc", "axc")
    want = {
        frozenset(((classes[p[0]], 1), (classes[p[1]], 2), (classes[p[2]], 3)))
        for p in itertools.permutations(range(3))
    }
    assert got == want
    assert all(k == "CCZ" for k, _ in act.gate_list())


def test_action_coefficients_equal_triple_cup(t2xs1_2layers):
    # the central theorem: extracted CCZ coefficients = triple cup integrals
    K = t2xs1_2layers
    code = toric_code(K, 3)
    act = extract_logical_action(ccz_circuit(K), code)
    duals = named_dual_cocycles(K)
    labels = code.logical_labels()
    cyc_of_label = {"b1xc": "a1", "a1xc": "b1", "fiber": "c"}
    k1 = 3
    for j1, j2, j3 in itertools.product(range(k1), range(k1), range(2 * k1, 3 * k1)):
        pass  # copy roles are fixed (1, 2, 3) by the front/middle/back edges
    extracted = {frozenset(qs) for _, qs in act.gate_list()}
    for combo in itertools.product(cyc_of_label, repeat=3):
        val = triple_cup_integral(
            K, duals[cyc_of_label[combo[0]]], duals[cyc_of_label[combo[1]]],
            duals[cyc_of_label[combo[2]]],
        )
        triple = frozenset(((combo[0], 1), (combo[1], 2), (combo[2], 3)))
        if len({c for c, _ in triple}) < 3:
            continue  # repeated classes never fire here (checked by form_from_cup)
        assert (triple in extracted) == bool(val), (combo, val)


def test_cz_membrane_action_quasi_hyperbolic(s2xs1):
    code = toric_code(s2xs1, 3)
    for i in (1, 2):
        _, cells = s2xs1.cycles[f"a{i}xc"]
        for (r, s) in ((1, 2), (2, 3), (1, 3)):
            circ = cz_membrane_circuit(s2xs1, vec_from_support(cells), (r, s))
            act = extract_logical_action(circ, code)
            got = {frozenset(qs) for _, qs in act.gate_list()}
            want = {
                frozenset(((f"b{i}xc", r), ("fiber", s))),
                frozenset(((f"b{i}xc", s), ("fiber", r))),
            }
            assert got == want, (i, r, s, got)


def test_cz_fiber_collective_action(s2xs1):
    code = toric_code(s2xs1, 3)
    _, cells = s2xs1.cycles["fiber"]
    circ = cz_membrane_circuit(s2xs1, vec_from_support(cells), (1, 2))
    act = extract_logical_action(circ, code)
    got = {frozenset(qs) for _, qs in act.gate_list()}
    want = set()
    for i in (1, 2):
        want.add(frozenset(((f"a{i}xc", 1), (f"b{i}xc", 2))))
        want.add(frozenset(((f"b{i}xc", 1), (f"a{i}xc", 2))))
    assert got == want


def test_action_invariant_under_stabilizer_shift(t2xs1_2layers):
    # adding X-stabilizer rows (coboundaries) to the logical X
    # representatives never changes the extracted action
    K = t2xs1_2layers
    code = toric_code(K, 3)
    act1 = extract_logical_action(ccz_circuit(K), code)
    rng = random.Random(31)
    hxr = [r for r in code.hx.rows if r]
    lx = list(code.logical_x)
    for j in range(len(lx)):
        if rng.random() < 0.7:
            lx[j] ^= rng.choice(hxr)
    code2 = CssCode(code.n, code.hx, code.hz, lx, code.logical_z, code.meta)
    assert check_logicals(code2) == []
    act2 = extract_logical_action(ccz_circuit(K), code2)
    assert act1.poly.coeffs == act2.poly.coeffs


# -- coset-state oracle ------------------------------------------------------------


def test_identity_circuit_fixes_state(t3):
    code = toric_code(t3, 3)
    empty = DiagonalCircuit(code.n, [])
    st = coset_simulate(empty, code, list(range(code.k)))
    assert set(st.normalized().phases.values()) == {0}


def test_diagonal_fixes_zero_string(t3):
    code = toric_code(t3, 3)
    circ = ccz_circuit(t3)
    st = coset_simulate(circ, code, [], fixed=0).normalized()
    assert set(st.phases.values()) == {0}


def test_t3_hypergraph_state(t3):
    code = toric_code(t3, 3)
    circ = ccz_circuit(t3)
    labels = code.logical_labels()
    classes = ("axb", "bxc", "axc")
    edges = []
    for p in itertools.permutations(range(3)):
        edges.append(tuple(labels.index((classes[p[c]], c + 1)) for c in range(3)))
    predicted = LogicalAction(9, labels, hypergraph_state_poly(9, edges))
    sim = coset_simulate(circ, code, list(range(9)))
    lift = logical_state_lift(predicted, code, list(range(9)))
    assert sim.equal_up_to_global_phase(lift)


def test_oracle_agrees_with_extraction(t3, t2xs1_2layers, s2xs1):
    for K in (t3, t2xs1_2layers, s2xs1):
        code = toric_code(K, 3)
        circ = ccz_circuit(K)
        act = extract_logical_action(circ, code)
        sim = coset_simulate(circ, code, list(range(code.k)))
        lift = logical_state_lift(act, code, list(range(code.k)))
        assert sim.equal_up_to_global_phase(lift)


def test_oracle_on_partial_plus_states(t2xs1_2layers):
    code = toric_code(t2xs1_2layers, 3)
    circ = ccz_circuit(t2xs1_2layers)
    act = extract_logical_action(circ, code)
    rng = random.Random(5)
    for _ in range(5):
        plus = sorted(rng.sample(range(code.k), 4))
        fixed = rng.getrandbits(code.k)
        sim = coset_simulate(circ, code, plus, fixed)
        lift = logical_state_lift(act, code, plus, fixed)
        assert sim.equal_up_to_global_phase(lift)


def interpolated_logical_phase(f: PhasePolynomial, logical_x: list[int]) -> PhasePolynomial:
    """Reference for the Z_8 pullback in ``extract_logical_action``: evaluate
    f at every sum_j lambda_j L_j (2^k points), interpolate the coefficients
    of degree <= 3 by Moebius inversion, and reject a phase of higher degree."""
    k = len(logical_x)
    values = []
    for m in range(1 << k):
        x = 0
        for j in range(k):
            if (m >> j) & 1:
                x ^= logical_x[j]
        values.append(f.evaluate(x))
    out = PhasePolynomial(k)
    for size in range(4):
        for combo in itertools.combinations(range(k), size):
            c = 0
            for r in range(size + 1):
                for sub in itertools.combinations(combo, r):
                    c += (-1) ** (size - r) * values[vec_from_support(sub)]
            out._add(frozenset(combo), c)
    for m in range(1 << k):
        if out.evaluate(m) != values[m]:
            raise ValueError("logical phase is not degree <= 3")
    return out


def test_extraction_interpolation_route_matches_symbolic(t3):
    # the CCZ circuit (coefficients 4) and transversal T (coefficients 1, 7)
    # both go through the Z_8 pullback; the 2^k interpolation is the reference
    base = build_sigma_g_rotsym(2)
    torus = mapping_torus(base, rotation_automorphism(base, 2, 1), 1)
    cases = [(ccz_circuit(t3), toric_code(t3, 3))]
    cases += [(transversal_t(code), code) for code in (color_code(t3), color_code(torus))]
    for circ, code in cases:
        act = extract_logical_action(circ, code)
        ref = interpolated_logical_phase(PhasePolynomial.from_circuit(circ), code.logical_x)
        assert code.k == 9
        assert act.poly.coeffs == ref.coeffs
    assert {g for g, _ in extract_logical_action(*cases[1]).gate_list()} == {"CCZ"}


def test_z8_pull_back_matches_interpolation_on_random_bases():
    # random S/T/CZ/CCZ polynomials over random logical bases: the pullback
    # equals f at sum_j lambda_j L_j for every lambda, and the interpolation
    rng = random.Random(8)
    kinds = ("Z", "S", "Sdg", "T", "Tdg")
    for _ in range(150):
        n, k = rng.randint(3, 9), rng.randint(1, 5)
        logical_x = [rng.getrandbits(n) for _ in range(k)]
        gates = [(rng.choice(kinds), (rng.randrange(n),)) for _ in range(rng.randint(0, 6))]
        gates += [("CZ", tuple(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 3))]
        gates += [("CCZ", tuple(rng.sample(range(n), 3))) for _ in range(rng.randint(0, 3))]
        f = PhasePolynomial.from_circuit(DiagonalCircuit(n, gates))
        pulled = pull_back(f.coeffs, BitMatrix(len(logical_x), n, logical_x).transpose().rows)
        assert all(key.bit_count() <= 3 and 0 < c < 8 for key, c in pulled.items())
        for lam in range(1 << k):
            z = 0
            for j in range(k):
                if (lam >> j) & 1:
                    z ^= logical_x[j]
            assert sum(c for key, c in pulled.items() if key & lam == key) % 8 == f.evaluate(z)
        ref = interpolated_logical_phase(f, logical_x)
        assert {frozenset(support(key)): c for key, c in pulled.items()} == ref.coeffs


def test_extraction_rejects_degree_above_three():
    # a T-weight (coefficient 1) term on the pair z0 z2, each qubit in two
    # logical X strings: the pulled-back phase has the monomial y0 y1 y2 y3
    # with coefficient 4.  No circuit has that term (T acts on one qubit).
    n = 4
    logical_x = [0b0011, 0b0001, 0b1100, 0b0100]
    with pytest.raises(ValueError, match="gate T acts on 1 qubit"):
        DiagonalCircuit(n, [("T", (0, 2))])
    f = PhasePolynomial(n, {frozenset({0, 2}): 1})
    assert pull_back(f.coeffs, BitMatrix(len(logical_x), n, logical_x).transpose().rows)[0b1111] == 4
    with pytest.raises(ValueError, match="degree <= 3"):
        logical_phase(f, logical_x)
    with pytest.raises(ValueError, match="degree <= 3"):
        interpolated_logical_phase(f, logical_x)


@pytest.mark.parametrize("genus, n, ccz", [(2, 432, 18), (4, 1008, 34)])
def test_transversal_t_color_code_sigma_circle_rungs(genus, n, ccz):
    # k = 3 b_1 = 15 and 27: beyond the reach of 2^k interpolation
    t0 = time.perf_counter()
    K = product_with_circle(build_sigma_g(genus), 1)
    code = color_code(K)
    circ = transversal_t(code)
    chk = check_logical_gate(circ, code)
    act = extract_logical_action(circ, code, chk)
    elapsed = time.perf_counter() - t0
    assert (code.n, code.k) == (n, 3 * homology.betti_all(K)[1])
    assert chk.status == "PASS"
    gates = act.gate_list()
    assert len(gates) == ccz and all(kind == "CCZ" for kind, _ in gates)
    f = PhasePolynomial.from_circuit(circ)
    rng = random.Random(genus)
    for lam in [rng.getrandbits(code.k) for _ in range(50)]:
        z = 0
        for j in support(lam):
            z ^= code.logical_x[j]
        assert act.poly.evaluate(lam) == f.evaluate(z)
    assert elapsed < 10.0, f"Sigma_{genus} x S^1 color-code rung took {elapsed:.1f}s"


# -- exactness on small codes ------------------------------------------------------


def random_small_css(rng) -> CssCode | None:
    n = rng.randint(5, 9)
    hx_rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 2))]
    hx = BitMatrix(len(hx_rows), n, hx_rows)
    null = hx.nullspace()
    if not null:
        return None
    rng.shuffle(null)
    hz_rows = null[: rng.randint(1, max(1, len(null) - 1))]  # null vectors of hx: hx hz^T = 0
    return CssCode(n, hx, BitMatrix(len(hz_rows), n, hz_rows), [], [], {})


def test_criterion_soundness_on_random_codes():
    # +-T layers: the pullback verdict equals exact coset enumeration
    rng = random.Random(99)
    verdicts = []
    for _ in range(300):
        code = random_small_css(rng)
        if code is None:
            continue
        signs = [rng.choice((1, -1)) for _ in range(code.n)]
        circ = DiagonalCircuit(code.n, [("T" if s > 0 else "Tdg", (q,)) for q, s in enumerate(signs)])
        chk = check_logical_gate(circ, code)
        assert chk.mode == ("pullback" if any(code.hx.rows) else "vacuous")
        assert chk.passed == exact_coset_verdict(circ, code)
        verdicts.append(chk.passed)
    assert len(verdicts) >= 200
    assert 1 <= sum(verdicts) < len(verdicts)


def test_criterion_passes_on_smallest_color_code():
    # [[8, 3, 2]]: X-stabilizer = all eight corners of a cube, Z-stabilizers
    # on faces, T/Tdg signed by corner parity
    n = 8
    hx = BitMatrix(1, n, [0xFF])
    faces = []
    for axis in range(3):
        for side in (0, 1):
            face = [v for v in range(8) if (v >> axis) & 1 == side]
            faces.append(vec_from_support(face))
    hz = BitMatrix(len(faces), n, faces)
    code = CssCode(n, hx, hz, [], [], {})
    signs = [1 if bin(v).count("1") % 2 == 0 else -1 for v in range(8)]
    circ = DiagonalCircuit(n, [("T" if s > 0 else "Tdg", (q,)) for q, s in enumerate(signs)])
    chk = check_logical_gate(circ, code)
    assert (chk.status, chk.mode) == ("PASS", "pullback")
    assert exact_coset_verdict(circ, code)
    # a single T is not logical on it
    single = DiagonalCircuit(n, [("T", (0,))])
    assert check_logical_gate(single, code).status == "FAIL"
    assert not exact_coset_verdict(single, code)


def test_cz_route_matches_triple_cup_route(s2xs1):
    # the membrane circuit's logical CZ coefficients equal the integrals
    # of (beta cup gamma cup membrane-dual) over the whole 3-complex
    from tricode import homology

    K = s2xs1
    code = toric_code(K, 3)
    duals = named_dual_cocycles(K)
    cyc_of_label = {"b1xc": "a1", "a1xc": "b1", "b2xc": "a2", "a2xc": "b2", "fiber": "c"}
    for membrane in ("a1xc", "b2xc", "fiber"):
        _, cells = K.cycles[membrane]
        z = vec_from_support(cells)
        circ = cz_membrane_circuit(K, z, (1, 2))
        act = extract_logical_action(circ, code)
        alpha = Cochain(1, homology.poincare_duals(K, [z])[0])
        extracted = {frozenset(qs) for _, qs in act.gate_list()}
        for b_lab, g_lab in itertools.product(cyc_of_label, repeat=2):
            if b_lab == g_lab:
                continue
            val = triple_cup_integral(K, duals[cyc_of_label[b_lab]],
                                      duals[cyc_of_label[g_lab]], alpha)
            pair = frozenset(((b_lab, 1), (g_lab, 2)))
            if val:
                assert pair in extracted, (membrane, b_lab, g_lab)


def test_logical_x_conjugation_gives_membrane_cz(t3):
    # conjugating the CCZ circuit by a copy-1 logical X (cocycle alpha)
    # leaves exactly the CZ layer of the alpha-restricted cup product
    code = toric_code(t3, 3)
    circ = ccz_circuit(t3)
    alpha = named_dual_cocycles(t3)["a"].values
    residual = conjugate_x(circ, alpha)  # copy-1 qubits occupy bits 0..6
    E = t3.n_cells(1)
    want = []
    for s in range(t3.n_cells(3)):
        mid = t3.face[3][s][3]
        e1 = t3.face[2][mid][2]
        e2 = t3.face[2][mid][0]
        e3 = t3.back(3, s, 1)
        if (alpha >> e1) & 1:
            want.append(("CZ", tuple(sorted((E + e2, 2 * E + e3)))))
    got = residual.to_circuit().canonical().gates
    assert got == DiagonalCircuit(3 * E, want).canonical().gates


def test_conjugation_involution(t2xs1_2layers):
    K = t2xs1_2layers
    circ = ccz_circuit(K)
    f = PhasePolynomial.from_circuit(circ)
    code = toric_code(K, 3)
    for x in code.hx.rows[:6]:
        assert shifted(shifted(f, x), x).coeffs == f.coeffs
