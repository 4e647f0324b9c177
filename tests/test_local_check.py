"""The code-space check against its dense references.

``check_logical_gate`` decides code-space preservation by one Z_8 pullback
over a local spanning set of ker hz.  The references here are the routes it
replaced: ``vanishes_on_span`` of each stabilizer's full residual over a
nullspace basis of hz ({Z, CZ, CCZ} circuits), and exact enumeration of ker hz
with a Gray code (any diagonal circuit).  ``logical_phase``, the pullback onto
the logical X strings alone, is the reference for the logical action.
"""

import dataclasses
import itertools
import json
import random
import time

import pytest

from tricode import complexes, gates, homology
from tricode.codes import CssCode, color_code, systole_bfs, toric_code
from tricode.gates import (
    GATE_COEFF,
    DiagonalCircuit,
    PhasePolynomial,
    _kernel_generators,
    _logical_poly,
    ccz_circuit,
    check_logical_gate,
    extract_logical_action,
    pull_back,
    transversal_t,
)
from tricode.gf2 import BitMatrix, extend_basis, vec_from_support

from conftest import chain_spaces, degree, minus, shifted, row_reduce, unchecked_membrane_circuit


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


def is_pauli_z_layer(f: PhasePolynomial) -> bool:
    """All coefficients in {0, 4}: a (-1)-phase polynomial."""
    return all(c == 4 for c in f.coeffs.values())


def vanishes_on_span(f: PhasePolynomial, basis: list[int]) -> tuple[bool, int | None]:
    """Does f vanish identically (mod 8) on the GF(2) span of ``basis``?

    For degree <= 3 with coefficients in {0, 4} this is decided exactly by
    the values on 0, the basis, basis pairs and basis triples (polarization
    of a cubic form over GF(2)); a witness vector is returned on failure.
    """
    if not is_pauli_z_layer(f):
        raise ValueError("vanishing check expects coefficients in {0, 4}")
    if degree(f) > 3:
        raise ValueError("vanishing check implemented for degree <= 3")
    probes: list[int] = [0]
    probes += basis
    probes += [a ^ b for a, b in itertools.combinations(basis, 2)]
    if degree(f) >= 3:
        probes += [a ^ b ^ c for a, b, c in itertools.combinations(basis, 3)]
    for z in probes:
        if f.evaluate(z):
            return False, z
    return True, None


def logical_phase(f: PhasePolynomial, logical_x: list[int]) -> PhasePolynomial:
    """f pulled back over Z_8 onto the logical X strings alone, as a
    polynomial in the k = len(logical_x) logical variables."""
    masks = BitMatrix(len(logical_x), f.n, logical_x).transpose().rows
    return _logical_poly(pull_back(f.coeffs, masks), len(logical_x))


def dense_first_failure(circ: DiagonalCircuit, code: CssCode) -> int | None:
    """Index of the first X stabilizer whose full residual does not vanish on
    a nullspace basis of hz, or None when every one vanishes."""
    f = PhasePolynomial.from_circuit(circ)
    zbasis = code.hz.nullspace()
    for idx, x in enumerate(code.hx.rows):
        if not vanishes_on_span(minus(shifted(f, x), f), zbasis)[0]:
            return idx
    return None


def kernel_points(code: CssCode) -> list[int]:
    """Every vector of ker hz, in Gray-code order over a nullspace basis."""
    zbasis = code.hz.nullspace()
    points, z = [0], 0
    for m in range(1, 1 << len(zbasis)):
        z ^= zbasis[(m & -m).bit_length() - 1]
        points.append(z)
    return points


def exact_coset_verdict(circ: DiagonalCircuit, code: CssCode) -> bool:
    """Is the phase constant on every coset of the X-stabilizer group inside
    ker hz?  Exhaustive, so only for small ker hz."""
    f = PhasePolynomial.from_circuit(circ)
    stab_basis, stab_pivots = row_reduce(code.hx.rows)
    seen: dict[int, int] = {}
    for z in kernel_points(code):
        rep = z
        for b, p in zip(stab_basis, stab_pivots):
            if (rep >> p) & 1:
                rep ^= b
        val = f.evaluate(z)
        if seen.setdefault(rep, val) != val:
            return False
    return True


def first_failing_row(circ: DiagonalCircuit, code: CssCode) -> int | None:
    """Index of the first X-stabilizer row x with f(z + x) != f(z) for some z
    in ker hz, by enumeration; None when there is none."""
    f = PhasePolynomial.from_circuit(circ)
    points = kernel_points(code)
    for idx, x in enumerate(code.hx.rows):
        if any(f.evaluate(z ^ x) != f.evaluate(z) for z in points):
            return idx
    return None


def assert_witness(chk, circ: DiagonalCircuit, code: CssCode):
    """A FAIL witness z lies in ker hz and f(z + x) != f(z) for the witness
    stabilizer row x."""
    assert (chk.status, chk.mode) == ("FAIL", "pullback")
    f = PhasePolynomial.from_circuit(circ)
    z, x = chk.witness_vector, code.hx.rows[chk.witness_stabilizer]
    assert code.hz.matvec(z) == 0
    assert f.evaluate(z ^ x) != f.evaluate(z)


def assert_agrees_with_dense(circ: DiagonalCircuit, code: CssCode):
    chk = check_logical_gate(circ, code)
    bad = dense_first_failure(circ, code)
    assert chk.passed == (bad is None)
    if not chk.passed:
        assert chk.witness_stabilizer == bad
        assert_witness(chk, circ, code)
    return chk


def drop(circ: DiagonalCircuit, i: int) -> DiagonalCircuit:
    return DiagonalCircuit(circ.n, circ.gates[:i] + circ.gates[i + 1:])


# -- building blocks -------------------------------------------------------------


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
    _, boundaries, _, _ = chain_spaces(K, 2)
    rng = random.Random(5)
    fails = 0
    for _ in range(12):
        z = rng.choice(boundaries) ^ (1 << rng.randrange(K.n_cells(2)))
        circ = unchecked_membrane_circuit(K, z, tuple(rng.sample((1, 2, 3), 2)))
        fails += assert_agrees_with_dense(circ, code).status == "FAIL"
    assert fails >= 1


def test_every_t_flip_on_t3_color_code():
    code = color_code(complexes.build_torus3())
    circ = transversal_t(code)
    assert check_logical_gate(circ, code).passed
    assert len(circ.gates) == 144
    for i, (kind, qs) in enumerate(circ.gates):
        gates = list(circ.gates)
        gates[i] = ("Tdg" if kind == "T" else "T", qs)
        flipped = DiagonalCircuit(circ.n, gates)
        chk = check_logical_gate(flipped, code)
        assert_witness(chk, flipped, code)
        # only the rows through the flipped qubit see a changed residual
        assert (code.hx.rows[chk.witness_stabilizer] >> qs[0]) & 1


def random_circuit(rng: random.Random, n: int, quiet: int = 0) -> DiagonalCircuit:
    """Random gates of every kind; qubits are drawn from the bits of ``quiet``
    (when it has enough) half of the time, so that some circuits pass."""
    pool = [q for q in range(n) if (quiet >> q) & 1]
    gates = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(sorted(GATE_COEFF))
        arity = {"CZ": 2, "CCZ": 3}.get(kind, 1)
        qubits = pool if len(pool) >= arity and rng.random() < 0.5 else range(n)
        gates.append((kind, tuple(rng.sample(list(qubits), arity))))
    return DiagonalCircuit(n, gates)


def symmetrized(circ: DiagonalCircuit, code: CssCode) -> DiagonalCircuit:
    """The circuit with phase sum over s in the X-stabilizer group of
    f(z + s): constant on every coset, so it passes (global phase dropped)."""
    f = PhasePolynomial.from_circuit(circ)
    total = PhasePolynomial(circ.n)
    group = [0]
    for x in row_reduce(code.hx.rows)[0]:
        group += [s ^ x for s in group]
    for s in group:
        for S, c in shifted(f, s).coeffs.items():
            total._add(S, c)
    gates = []
    for S, c in total.coeffs.items():
        if len(S) == 1:
            gates += [("T", tuple(S))] * c
        elif S:
            gates.append(({2: "CZ", 3: "CCZ"}[len(S)], tuple(sorted(S))))
    return DiagonalCircuit(circ.n, gates)


def random_code(rng: random.Random) -> CssCode:
    """A small CSS code with nonzero X stabilizers, with logical X strings
    half of the time (else the spanning set is completed from a nullspace)."""
    n = rng.randint(4, 9)
    hx_rows = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(rng.randint(1, 3))]
    hx = BitMatrix(len(hx_rows), n, hx_rows)
    null = hx.nullspace()
    rng.shuffle(null)
    hz_rows = null[: rng.randint(0, len(null))]
    hz = BitMatrix(len(hz_rows), n, hz_rows)
    lx = lz = []
    if rng.random() < 0.5:
        lx = extend_basis(row_reduce(hx_rows)[0], hz.nullspace())
        lz = extend_basis(row_reduce(hz_rows)[0], hx.nullspace())
    return CssCode(n, hx, hz, lx, lz, {})


def test_random_circuits_agree_with_exact_coset_enumeration():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    kinds = set()
    for _ in range(600):
        code = random_code(rng)
        quiet = (1 << code.n) - 1
        for x in code.hx.rows:
            quiet &= ~x
        circ = random_circuit(rng, code.n, quiet if rng.random() < 0.5 else 0)
        if rng.random() < 0.3:
            circ = symmetrized(circ, code)
        chk = check_logical_gate(circ, code)
        want = exact_coset_verdict(circ, code)
        assert chk.passed == want
        assert first_failing_row(circ, code) == (None if want else chk.witness_stabilizer)
        if not want:
            assert_witness(chk, circ, code)
        verdicts[want] += 1
        kinds |= {kind for kind, _ in circ.gates}
    assert min(verdicts.values()) >= 40
    assert kinds == set(GATE_COEFF)


def test_partial_t_layers_on_the_cube_code():
    # [[8, 3, 2]]: X = all corners of a cube, Z on its faces.  Some T/Tdg
    # layers on a face break only the triple-overlap (degree 3) condition.
    n = 8
    faces = [vec_from_support(v for v in range(n) if (v >> axis) & 1 == side)
             for axis in range(3) for side in (0, 1)]
    code = CssCode(n, BitMatrix(1, n, [0xFF]), BitMatrix(6, n, faces), [], [], {})
    verdicts = []
    for choice in itertools.product((None, "T", "Tdg"), repeat=n):
        circ = DiagonalCircuit(n, [(kind, (q,)) for q, kind in enumerate(choice) if kind])
        chk = check_logical_gate(circ, code)
        assert chk.passed == exact_coset_verdict(circ, code)
        if not chk.passed:
            assert_witness(chk, circ, code)
        verdicts.append(chk.passed)
    assert 0 < sum(verdicts) < len(verdicts)


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
    return _kernel_generators(code)[0]


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
        chk = check_logical_gate(t_layer, code)
        assert chk.mode == ("pullback" if any(code.hx.rows) else "vacuous")
        assert chk.passed == exact_coset_verdict(t_layer, code)
        seen.add(chk.status)
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
    # the action's logical variables must be generators, so it is refused
    with pytest.raises(ValueError, match="logical X 0 has a Z-syndrome"):
        extract_logical_action(circ, bent)
    assert len(extract_logical_action(circ, code).gate_list()) == 6


def test_action_is_the_logical_part_of_the_check_pullback(t2xs1_2layers):
    # the logical monomials of the check's pullback equal f pulled back onto
    # the logical X strings alone
    K = t2xs1_2layers
    code = toric_code(K, 3)
    short = CssCode(code.n, code.hx, code.hz, code.logical_x[2:], code.logical_z[2:], {})
    cc = color_code(K)
    for circ, c in ((ccz_circuit(K), code), (ccz_circuit(K), short), (transversal_t(cc), cc)):
        chk = check_logical_gate(circ, c)
        f = PhasePolynomial.from_circuit(circ)
        assert extract_logical_action(circ, c, chk).poly.coeffs == logical_phase(f, c.logical_x).coeffs
    dropped = drop(ccz_circuit(K), 0)
    with pytest.raises(ValueError, match="not a logical gate: FAIL"):
        extract_logical_action(dropped, code, check_logical_gate(dropped, code))


def test_action_runs_the_check_only_when_none_is_given(t2xs1_2layers, monkeypatch):
    # a passing check without the pullback is trusted: the check is
    # deterministic, so running it again would give no pullback either
    K = t2xs1_2layers
    code = toric_code(K, 3)
    lx = list(code.logical_x)
    lx[0] ^= 1 << 0  # the bent code of test_logical_outside_ker_hz
    bent = CssCode(code.n, code.hx, code.hz, lx, code.logical_z, {})
    calls = []

    def counted(*args):
        calls.append(args)
        return check_logical_gate(*args)

    monkeypatch.setattr(gates, "check_logical_gate", counted)
    circ = ccz_circuit(K)
    chk = gates.check_logical_gate(circ, bent)
    assert chk.passed and chk.logical is None
    with pytest.raises(ValueError, match="logical X 0 has a Z-syndrome"):
        extract_logical_action(circ, bent, chk)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="logical X 0 has a Z-syndrome"):
        extract_logical_action(circ, bent)
    assert len(calls) == 2


def test_non_css_code_raises():
    n = 4
    hx = BitMatrix(2, n, [0b0011, 0b1100])
    hz = BitMatrix(1, n, [0b0110])  # odd overlap with both X rows
    code = CssCode(n, hx, hz, [], [], {})
    with pytest.raises(ValueError, match="X-stabilizer row 0 has odd overlap"):
        check_logical_gate(DiagonalCircuit(n, [("CZ", (0, 1))]), code)


def test_a_passing_check_without_a_pullback_is_refused():
    # every logical X of the built code lies in ker hz, so no Z-syndrome can
    # explain the missing pullback; this used to raise a bare StopIteration
    K = t3_cover(3)
    code = toric_code(K, 3)
    with pytest.raises(ValueError, match="the check carries no logical pullback"):
        extract_logical_action(ccz_circuit(K), code, gates.GateCheck("PASS", "pullback"))


# -- built codes skip the check's CSS and spanning passes ---------------------------


def loaded(code: CssCode) -> CssCode:
    """The code's JSON round trip: the same code, without its builder's facts."""
    from tricode import serialize

    return serialize.code_from_json(json.loads(serialize.dumps(serialize.code_to_json(code))))


def seeded_mutant(circ: DiagonalCircuit, rng: random.Random) -> DiagonalCircuit:
    """circ with one gate dropped (a CCZ) or flipped (a T or Tdg)."""
    i = rng.randrange(len(circ.gates))
    kind, qs = circ.gates[i]
    if kind == "CCZ":
        return drop(circ, i)
    return DiagonalCircuit(circ.n, circ.gates[:i] + [("Tdg" if kind == "T" else "T", qs)]
                           + circ.gates[i + 1:])


def test_built_and_loaded_codes_get_the_same_check():
    # the loaded copy runs the full CSS pass and hz elimination: the oracle
    # for the builders' facts, on the complexes the color code is tested on
    # (all but sd(Sigma_2 x S1), which alone would take 3 s)
    from test_codes import COLOR_CORPUS

    rng = random.Random(24)
    seen = set()
    for name, build in COLOR_CORPUS.items():
        if name == "sd(Sigma_2 x S1)":
            continue
        K = build()
        toric = toric_code(K, 3)
        color = color_code(K)
        for code, circ in ((toric, ccz_circuit(K)), (color, transversal_t(color))):
            back = loaded(code)
            assert (code._spans_ker_hz, back._spans_ker_hz) == (True, False)
            assert _kernel_generators(code) == _kernel_generators(back), name
            for c in (circ, seeded_mutant(circ, rng)):
                chk = check_logical_gate(c, code)
                assert chk == check_logical_gate(c, back), name
                seen.add((len(c.gates[0][1]), chk.status))
    assert seen == {(3, "PASS"), (3, "FAIL"), (1, "PASS"), (1, "FAIL")}


def test_a_replaced_code_inherits_no_facts(t2xs1_2layers):
    K = t2xs1_2layers
    code = toric_code(K, 3)
    lx = list(code.logical_x)
    lx[0] ^= 1 << 0  # the bent code of test_logical_outside_ker_hz
    bent = dataclasses.replace(code, logical_x=lx)
    assert code._spans_ker_hz and not bent._spans_ker_hz
    circ = ccz_circuit(K)
    chk = check_logical_gate(circ, bent)
    assert chk.passed and chk.logical is None
    with pytest.raises(ValueError, match="logical X 0 has a Z-syndrome"):
        extract_logical_action(circ, bent, chk)
    assert check_logical_gate(circ, code).logical is not None


def test_codes_are_frozen(t3):
    code = toric_code(t3, 3)
    for name, value in (("n", 5), ("logical_x", []), ("meta", {}), ("_spans_ker_hz", False)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(code, name, value)
    assert code._spans_ker_hz and code.n == 21


# -- guards -----------------------------------------------------------------------


def test_size_mismatch_raises(t3):
    circ = ccz_circuit(t3)
    with pytest.raises(ValueError, match="21 qubits but the code has 7"):
        check_logical_gate(circ, toric_code(t3, 1))
    with pytest.raises(ValueError):
        extract_logical_action(circ, toric_code(t3, 1))


def test_other_guards_raise():
    with pytest.raises(ValueError):
        vanishes_on_span(PhasePolynomial.from_circuit(DiagonalCircuit(1, [("T", (0,))])), [1])


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
    assert (chk.status, chk.mode) == ("PASS", "pullback")
    gates = act.gate_list()
    assert len(gates) == 6 and all(kind == "CCZ" for kind, _ in gates)
    assert length == 4
    assert elapsed < 10.0, f"T^3 L = 4 rung took {elapsed:.1f}s"
