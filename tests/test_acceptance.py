"""Acceptance suite: one test per criterion, each timed against its stated
budget and printing a PASS/FAIL line (run with -s to stream them).
"""

import itertools
import math
import random
import time

import pytest

from tricode import homology
from tricode.codes import CssCode, toric_code
from tricode.complexes import build_sigma_g, build_torus3, product_with_circle
from tricode.cup import (
    Cochain,
    named_dual_cocycles,
    triple_cup_integral,
)
from tricode.gf2 import BitMatrix, vec_from_support
from tricode.gates import (
    DiagonalCircuit,
    LogicalAction,
    PhasePolynomial,
    ccz_circuit,
    check_logical_gate,
    coset_simulate,
    coset_support,
    cz_membrane_circuit,
    extract_logical_action,
    hypergraph_state_poly,
    logical_state_lift,
)
from tricode.mcg import (
    dehn_twist_matrix,
    humphries_curve,
    is_symplectic,
    mapping_torus_homology,
    thurston,
    twist_sequence_action,
)
from tricode.snf import det, identity, matmul, smith_normal_form
from tricode.sullivan import genus13_tree_form, handle_form, roundtrip_check, synthesize

from conftest import cnot_pair_between_handles, coboundary, leibniz_defect
from test_local_check import exact_coset_verdict


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        return False


def test_criterion_1_betti_regression():
    with Budget("1 betti regression", 1.0 * 4):
        t0 = time.perf_counter()
        assert homology.betti_all(build_torus3()) == (1, 3, 3, 1)
        assert time.perf_counter() - t0 < 1.0
        for g in (1, 2, 3):
            t0 = time.perf_counter()
            P = product_with_circle(build_sigma_g(g), 1)
            assert homology.betti(P, 1) == 2 * g + 1
            assert time.perf_counter() - t0 < 1.0


def test_criterion_2_triple_intersections():
    with Budget("2 triple intersections", 1.0 * 4):
        t0 = time.perf_counter()
        T3 = build_torus3()
        d = named_dual_cocycles(T3)
        assert triple_cup_integral(T3, d["a"], d["b"], d["c"]) == 1
        assert time.perf_counter() - t0 < 1.0
        for g in (1, 2, 3):
            t0 = time.perf_counter()
            P = product_with_circle(build_sigma_g(g), 1)
            dp = named_dual_cocycles(P)
            names = list(dp)
            units = [
                {names[i], names[j], names[k]}
                for i, j, k in itertools.combinations(range(len(names)), 3)
                if triple_cup_integral(P, dp[names[i]], dp[names[j]], dp[names[k]])
            ]
            # exactly g unit triples, all containing the fibre-surface class
            # (the named 1-cycle c is the dual of the Sigma_g 2-cycle)
            assert len(units) == g
            assert all("c" in u for u in units)
            assert units == [{f"a{i}", f"b{i}", "c"} for i in range(1, g + 1)]
            assert time.perf_counter() - t0 < 1.0


def test_criterion_3_gate_theorem_end_to_end():
    with Budget("3 gate theorem end-to-end", 10.0):
        T3 = build_torus3()
        code = toric_code(T3, 3)
        circ = ccz_circuit(T3)
        chk = check_logical_gate(circ, code)
        assert chk.passed
        act = extract_logical_action(circ, code, chk)
        got = {frozenset(qs) for _, qs in act.gate_list()}
        classes = ("axb", "bxc", "axc")
        want = {
            frozenset(((classes[p[0]], 1), (classes[p[1]], 2), (classes[p[2]], 3)))
            for p in itertools.permutations(range(3))
        }
        assert got == want and len(got) == 6
        labels = code.logical_labels()
        edges = [
            tuple(labels.index((classes[p[c]], c + 1)) for c in range(3))
            for p in itertools.permutations(range(3))
        ]
        hyper = LogicalAction(9, labels, hypergraph_state_poly(9, edges))
        sim = coset_simulate(circ, code, list(range(9)))
        assert sim.equal_up_to_global_phase(logical_state_lift(hyper, code, list(range(9))))


def test_criterion_4_cz_addressability():
    with Budget("4 CZ addressability", 10.0):
        P = product_with_circle(build_sigma_g(2), 1)
        code = toric_code(P, 3)
        for i in (1, 2):
            _, cells = P.cycles[f"a{i}xc"]
            circ = cz_membrane_circuit(P, vec_from_support(cells), (1, 2))
            act = extract_logical_action(circ, code)
            got = {frozenset(qs) for _, qs in act.gate_list()}
            assert got == {
                frozenset(((f"b{i}xc", 1), ("fiber", 2))),
                frozenset(((f"b{i}xc", 2), ("fiber", 1))),
            }
        _, cells = P.cycles["fiber"]
        circ = cz_membrane_circuit(P, vec_from_support(cells), (1, 2))
        act = extract_logical_action(circ, code)
        got = {frozenset(qs) for _, qs in act.gate_list()}
        want = set()
        for i in (1, 2):
            want.add(frozenset(((f"a{i}xc", 1), (f"b{i}xc", 2))))
            want.add(frozenset(((f"b{i}xc", 1), (f"a{i}xc", 2))))
        assert got == want  # the collective product over the handles


def test_criterion_5_property_suites():
    with Budget("5 property suites (>= 200 each)", 60.0):
        T3 = build_torus3()
        E, V, F = T3.n_cells(1), T3.n_cells(0), T3.n_cells(2)
        rng = random.Random(2026)

        for _ in range(200):  # Leibniz rule at cochain level
            a = Cochain(1, rng.getrandbits(E))
            b = Cochain(1, rng.getrandbits(E))
            assert leibniz_defect(T3, a, b) == 0

        for _ in range(200):  # d d = 0
            c0 = Cochain(0, rng.getrandbits(V))
            assert coboundary(T3, coboundary(T3, c0)).values == 0
            c1 = Cochain(1, rng.getrandbits(E))
            assert coboundary(T3, coboundary(T3, c1)).values == 0

        duals = named_dual_cocycles(T3)
        cocycles = list(duals.values())
        for _ in range(200):  # coboundary invariance of the triple integral
            a = Cochain(1, rng.getrandbits(E))
            lam = Cochain(0, rng.getrandbits(V))
            b, c = rng.choice(cocycles), rng.choice(cocycles)
            shifted = Cochain(1, a.values ^ coboundary(T3, lam).values)
            assert triple_cup_integral(T3, shifted, b, c) == triple_cup_integral(T3, a, b, c)

        for _ in range(200):  # symplectic transvections and products
            g = rng.randint(1, 3)
            M = identity(2 * g)
            for _ in range(rng.randint(1, 4)):
                curve = [rng.randint(-3, 3) for _ in range(2 * g)]
                M = matmul(M, dehn_twist_matrix(curve, g))
            assert is_symplectic(M, g)

        for _ in range(200):  # SNF divisibility chain + unimodular transforms
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            res = smith_normal_form(A)
            nz = [a for a in res.diagonal if a]
            assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
            assert abs(det(res.P)) == 1 and abs(det(res.Q)) == 1


def test_criterion_6_snf_mapping_torus_regression():
    with Budget("6 SNF / mapping-torus regression", 1.0):
        T5 = dehn_twist_matrix(humphries_curve("t5"), 2)
        for a in (1, 2, 5, 100):
            M = identity(4)
            for _ in range(a):
                M = matmul(M, T5)
            h = mapping_torus_homology(M, "Z")
            assert h.snf_diagonal == [a, 0, 0, 0]
            assert h.free_rank == 4 and h.torsion == ([a] if a > 1 else [])
        for g in (2, 3):
            assert mapping_torus_homology(identity(2 * g), "Z").free_rank == 2 * g + 1


def test_criterion_7_thurston_numbers():
    with Budget("7 Thurston numbers", 1.0):
        res = thurston([[4, 8], [0, 4]], ["A", "B"])
        assert abs(res.nu - 16 * (3 + 2 * math.sqrt(2))) < 1e-9
        assert res.is_pseudo_anosov
        assert abs(res.stretch_factor - 91.2439) < 1e-4
        for word in (["A", "A-"], ["B", "B-"], []):
            r = thurston([[4, 8], [0, 4]], word)
            assert abs(r.trace) <= 2 and not r.is_pseudo_anosov


def test_criterion_8_sullivan_roundtrip():
    with Budget("8 Sullivan round-trip", 30.0):
        rng = random.Random(808)
        for _ in range(100):
            m = rng.randint(3, 8)
            triples = list(itertools.combinations(range(1, m + 1), 3))
            coeffs = {
                t: rng.randint(-4, 4)
                for t in rng.sample(triples, min(rng.randint(1, 5), len(triples)))
            }
            mu = handle_form(m, coeffs)
            rep = roundtrip_check(mu)
            assert rep.passed, rep.failures
            units = {
                tuple(sorted(t))
                for t in synthesize(mu).predicted_form.known_unit_triples()
            }
            want = {
                tuple(sorted((i - 1, j - 1, k - 1)))
                for (i, j, k), v in coeffs.items()
                if v % 2
            }
            assert units == want  # predicted form == mu mod 2
        mu13 = genus13_tree_form()
        assert roundtrip_check(mu13).passed
        from tricode.hypergraph import base_hypergraph, degree_report

        h = base_hypergraph(synthesize(mu13).predicted_form)
        assert len(h.hyperedges) == 6
        rep = degree_report(h)
        assert rep.max_degree == 2 and not rep.star_like
        assert {v for v, d in rep.degrees.items() if d == 2} == {"G1", "G2", "G3", "G4", "G5", "G12"}


def _simulator_verdict(circuit, code) -> bool:
    """Independent oracle: phases constant on every X-stabilizer coset of the
    all-plus support."""
    from conftest import row_reduce

    f = PhasePolynomial.from_circuit(circuit)
    stab_basis, stab_pivots = row_reduce(code.hx.rows)

    def rep(z):
        for b, p in zip(stab_basis, stab_pivots):
            if (z >> p) & 1:
                z ^= b
        return z

    seen = {}
    for v in coset_support(code, list(range(code.k))):
        r = rep(v)
        val = f.evaluate(v)
        if r in seen and seen[r] != val:
            return False
        seen[r] = val
    return True


def test_criterion_9_oracle_equivalence():
    with Budget("9 oracle equivalence", 300.0):
        instances = []
        T3 = build_torus3()
        instances.append((T3, ccz_circuit(T3)))
        for nm in ("axb", "bxc", "axc"):
            _, cells = T3.cycles[nm]
            for cp in ((1, 2), (2, 3)):
                instances.append((T3, cz_membrane_circuit(T3, vec_from_support(cells), cp)))
        P2 = product_with_circle(build_sigma_g(1), 2)
        instances.append((P2, ccz_circuit(P2)))
        for nm in ("a1xc", "b1xc", "fiber"):
            _, cells = P2.cycles[nm]
            instances.append((P2, cz_membrane_circuit(P2, vec_from_support(cells), (1, 3))))
        S2 = product_with_circle(build_sigma_g(2), 1)
        instances.append((S2, ccz_circuit(S2)))
        for nm in ("a1xc", "b2xc", "fiber"):
            _, cells = S2.cycles[nm]
            instances.append((S2, cz_membrane_circuit(S2, vec_from_support(cells), (1, 2))))

        ran = 0
        for K, circ in instances:
            code = toric_code(K, 3)
            dims = code.hx.rank() + code.k
            if dims > 24:
                continue
            chk = check_logical_gate(circ, code)
            assert chk.passed == _simulator_verdict(circ, code)
            if chk.passed:
                act = extract_logical_action(circ, code, chk)
                sim = coset_simulate(circ, code, list(range(code.k)))
                lift = logical_state_lift(act, code, list(range(code.k)))
                assert sim.equal_up_to_global_phase(lift)
            ran += 1
        assert ran == len(instances)

        # fault-injected circuits: verdicts still agree
        rng = random.Random(909)
        code = toric_code(P2, 3)
        for _ in range(10):
            gates = [("CCZ", tuple(rng.sample(range(code.n), 3))) for _ in range(4)]
            circ = DiagonalCircuit(code.n, gates)
            chk = check_logical_gate(circ, code)
            assert chk.passed == _simulator_verdict(circ, code)

        # +-T layers on randomized small codes: the check agrees exactly
        # with enumeration of ker hz
        verdicts = []
        for _ in range(400):
            n = rng.randint(5, 9)
            hx_rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 2))]
            hx = BitMatrix(len(hx_rows), n, hx_rows)
            null = hx.nullspace()
            if not null:
                continue
            rng.shuffle(null)
            hz_rows = null[: rng.randint(1, len(null))]
            code = CssCode(n, hx, BitMatrix(len(hz_rows), n, hz_rows), [], [], {})
            signs = [rng.choice((1, -1)) for _ in range(n)]
            circ = DiagonalCircuit(
                n, [("T" if s > 0 else "Tdg", (q,)) for q, s in enumerate(signs)]
            )
            chk = check_logical_gate(circ, code)
            assert chk.mode == ("pullback" if any(hx_rows) else "vacuous")
            assert chk.passed == exact_coset_verdict(circ, code)
            verdicts.append(chk.passed)
        assert len(verdicts) >= 200 and 1 <= sum(verdicts) < len(verdicts)


def test_criterion_10_thickened_dehn_twists():
    with Budget("10 thickened Dehn twist composition", 1.0):
        for g in range(2, 7):
            for i in range(1, g):
                seq = twist_sequence_action([f"b:{i + 1}", f"b:{i}", f"f:{i}"], g)
                want = cnot_pair_between_handles(i, g)
                assert seq.matrix == want.matrix
