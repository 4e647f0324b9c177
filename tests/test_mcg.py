import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tricode import homology
from tricode.complexes import (
    build_sigma_g,
    cyclic_cover,
    mapping_torus,
    sheet_projection,
)
from tricode.gf2 import BitMatrix, dot, extend_basis, vec_from_support
from tricode.mcg import (
    curve_class,
    dehn_twist_matrix,
    gf2_pairing,
    humphries_curve,
    invariant_subspace_gf2,
    is_symplectic,
    is_torelli_gf2,
    mapping_torus_homology,
    sym_pairing,
    thickened_dehn_twist_action,
    thurston,
    torelli_triple_form,
    twist_sequence_action,
)
from tricode.snf import identity, matmul

from conftest import cnot_pair_between_handles, row_reduce

PAPER_T = {
    "t1": [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "t2": [[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 1, 0], [0, 0, 0, 1]],
    "t3": [[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
    "t4": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1]],
    "t5": [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
}


@pytest.mark.parametrize("name", sorted(PAPER_T))
def test_humphries_matrices(name):
    assert dehn_twist_matrix(humphries_curve(name), 2) == PAPER_T[name]


def test_null_homologous_twist_is_identity():
    assert dehn_twist_matrix([0, 0, 0, 0], 2) == identity(4)


def test_twists_are_symplectic_random():
    rng = random.Random(8)
    for _ in range(100):
        g = rng.randint(1, 4)
        c = [rng.randint(-3, 3) for _ in range(2 * g)]
        assert is_symplectic(dehn_twist_matrix(c, g), g)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_twist_symplectic_hypothesis(c):
    assert is_symplectic(dehn_twist_matrix(c, 2), 2)


def test_products_of_twists_symplectic():
    rng = random.Random(12)
    for _ in range(50):
        g = 2
        M = identity(2 * g)
        for _ in range(rng.randint(1, 6)):
            c = [rng.randint(-2, 2) for _ in range(2 * g)]
            M = matmul(M, dehn_twist_matrix(c, g))
        assert is_symplectic(M, g)


def test_t5_mapping_torus_homology():
    T5 = dehn_twist_matrix(humphries_curve("t5"), 2)
    for a in (1, 2, 5, 100):
        M = identity(4)
        for _ in range(a):
            M = matmul(M, T5)
        h = mapping_torus_homology(M, "Z")
        assert h.snf_diagonal == [a, 0, 0, 0]
        assert h.free_rank == 4
        assert h.torsion == ([a] if a > 1 else [])


@pytest.mark.parametrize("g", [2, 3, 4])
def test_identity_torus_rank(g):
    h = mapping_torus_homology(identity(2 * g), "Z")
    assert h.free_rank == 2 * g + 1
    assert mapping_torus_homology(identity(2 * g), "Z2") == 2 * g + 1


def test_generic_word_rank_one():
    rng = random.Random(77)
    gens = [dehn_twist_matrix(humphries_curve(f"t{i}"), 2) for i in range(1, 6)]
    hits = 0
    for _ in range(10):
        M = identity(4)
        for _ in range(25):
            M = matmul(M, rng.choice(gens))
        h = mapping_torus_homology(M, "Z")
        hits += h.free_rank == 1
    assert hits >= 8  # generic words preserve no homology class


def test_torelli_criterion():
    assert is_torelli_gf2(identity(4))
    T5 = dehn_twist_matrix(humphries_curve("t5"), 2)
    sq = matmul(T5, T5)
    assert is_torelli_gf2(sq)  # T5^2 = Id mod 2
    assert not is_torelli_gf2(T5)
    # Torelli (mod 2) iff b1 of the mapping torus is maximal
    for M, g in ((identity(4), 2), (sq, 2), (T5, 2)):
        b1 = mapping_torus_homology(M, "Z2")
        assert (b1 == 2 * g + 1) == is_torelli_gf2(M)


def test_torelli_triple_form_identity():
    for g in (2, 3):
        form = torelli_triple_form(identity(2 * g), g)
        units = form.known_unit_triples()
        assert len(units) == g
        # delta_ij pattern: Gamma with each (a_i, b_i) pair
        for t in units:
            assert 0 in t
        assert len(form.unknown) == math.comb(2 * g, 3)  # the fibre triples


def test_torelli_genus3_seven_classes():
    form = torelli_triple_form(identity(6), 3)
    assert len(form.labels) == 7  # H_2 = Z_2^7
    assert len(form.known_unit_triples()) == 3


def test_rank_one_coker_no_coefficients():
    rng = random.Random(3)
    gens = [dehn_twist_matrix(humphries_curve(f"t{i}"), 2) for i in range(1, 6)]
    M = identity(4)
    for _ in range(15):
        M = matmul(M, rng.choice(gens))
    if mapping_torus_homology(M, "Z2") == 1:
        form = torelli_triple_form(M, 2)
        assert form.known_unit_triples() == []


def test_thurston_paper_numbers():
    res = thurston([[4, 8], [0, 4]], ["A", "B"])
    nu_exact = 16 * (3 + 2 * math.sqrt(2))
    stretch_exact = 23 + 16 * math.sqrt(2) + 4 * math.sqrt(65 + 46 * math.sqrt(2))
    assert abs(res.nu - nu_exact) < 1e-9
    assert res.is_pseudo_anosov
    assert abs(res.stretch_factor - stretch_exact) < 1e-6
    assert abs(res.stretch_factor - 91.2439) < 1e-4
    assert res.volume_upper_bound(3) == pytest.approx(3 * math.pi * 4 * math.log(res.stretch_factor))


def test_thurston_rejects_small_trace():
    res = thurston([[4, 8], [0, 4]], ["A", "A-"])
    assert not res.is_pseudo_anosov
    assert res.stretch_factor is None
    assert abs(res.trace) <= 2


def test_thurston_rejects_reducible():
    with pytest.raises(ValueError, match="reducible"):
        thurston([[1, 0], [0, 1]], ["A", "B"])


@pytest.mark.parametrize("M, why", [
    ([[1, 0, 0], [0, 1, 0]], "must be square, not 2x3"),
    ([[1, 0], [0, 1], [0, 0]], "must be square, not 3x2"),
    ([], "is empty"),
    ([[]], "is empty"),
    ([[1, 0], [0]], "ragged: row 1 has 1 entries, row 0 has 2"),
])
def test_mapping_torus_homology_rejects_bad_shapes(M, why):
    for coeff in ("Z", "Z2"):
        with pytest.raises(ValueError, match=why):
            mapping_torus_homology(M, coeff)


@pytest.mark.parametrize("N, why", [
    ([], "is empty"),
    ([[]], "is empty"),
    ([[4, 8], [0]], "ragged: row 1 has 1 entries, row 0 has 2"),
])
def test_thurston_rejects_bad_shapes(N, why):
    with pytest.raises(ValueError, match=why):
        thurston(N, ["A", "B"])


def test_thurston_takes_multicurves_of_different_sizes():
    # two components against three: N N^T = [[2, 1], [1, 2]] has nu = 3
    res = thurston([[1, 1, 0], [0, 1, 1]], ["A", "B"])
    assert res.nu == pytest.approx(3)
    assert res.trace == pytest.approx(2 - 3)
    assert not res.is_pseudo_anosov


def test_thickened_single_twists():
    act_b = thickened_dehn_twist_action("b:1", 2)
    assert act_b.cnots == [("a1xc", "b1xc")]
    act_a = thickened_dehn_twist_action("a:1", 2)
    assert act_a.cnots == [("b1xc", "a1xc")]
    # involution on Z2 homology
    sq = act_b.compose(act_b)
    assert sq.matrix == [1 << i for i in range(5)]


def test_thickened_f_twist():
    act = thickened_dehn_twist_action("f:1", 2)
    assert len(act.cnots) == 4
    with pytest.raises(ValueError):
        thickened_dehn_twist_action("f:2", 2)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_three_twist_composition(g):
    for i in range(1, g):
        seq = twist_sequence_action([f"b:{i + 1}", f"b:{i}", f"f:{i}"], g)
        want = cnot_pair_between_handles(i, g)
        assert seq.matrix == want.matrix


def test_curve_class_parse():
    assert curve_class("a:2", 3) == [0, 1, 0, 0, 0, 0]
    assert curve_class("b:3", 3) == [0, 0, 0, 0, 0, 1]
    assert curve_class("f:1", 3) == [0, 0, 0, -1, 1, 0]
    assert curve_class("f:2", 3) == [0, 0, 0, 0, -1, 1]
    # index 0 used to wrap to the last handle, and a:9 raised IndexError; the
    # thickened twists parse their curves the same way
    for parse in (curve_class, thickened_dehn_twist_action):
        for spec, top in (("a:0", 2), ("b:0", 2), ("f:0", 1), ("a:3", 2), ("b:9", 2), ("f:2", 1)):
            with pytest.raises(ValueError, match=rf"curve '{spec}': index must lie in 1\.\.{top} \(genus 2\)"):
                parse(spec, 2)
        with pytest.raises(ValueError, match="unknown curve 'q:1'"):
            parse("q:1", 2)


# -- the commutative diagram for a free odd-order isometry ----------------------


def test_commuting_diagram_triple_cover():
    """Intersection form on I(tau*) agrees with the quotient surface's form
    through the transfer map, for a free order-3 deck rotation."""
    base = build_sigma_g(2)
    assert base.labels[(1, 0)] == "a1"
    cover, deck = cyclic_cover(base, {0: 1, 4: 1}, 3)  # a mod-3 cocycle, 1 on a1
    assert homology.betti(cover, 1) == 8  # genus 4 = 3 (2 - 1) + 1

    cycles, cocycles = homology.canonical_basis(cover, 1)

    def cls(chain):
        return vec_from_support(j for j, c in enumerate(cocycles) if dot(c, chain))

    def permute(chain):
        out = 0
        for e in range(cover.n_cells(1)):
            if (chain >> e) & 1:
                out ^= 1 << deck.perm[1][e]
        return out

    k = len(cycles)
    cols = [cls(permute(cycles[i])) for i in range(k)]
    delta = BitMatrix(k, k, [cols[i] ^ (1 << i) for i in range(k)]).transpose()
    inv_space = delta.nullspace()
    assert len(inv_space) == 4  # = b_1 of the quotient

    proj = sheet_projection(base, cover, 3)

    def transfer(chain):
        out = 0
        for ce in range(cover.n_cells(1)):
            if (chain >> proj[1][ce]) & 1:
                out ^= 1 << ce
        return out

    base_cycles = homology.canonical_basis(base, 1)[0]
    lifted = [transfer(z) for z in base_cycles]
    lifted_classes = [cls(t) for t in lifted]
    assert not extend_basis(inv_space, lifted_classes)
    assert len(row_reduce(lifted_classes)[0]) == 4  # transfer is iso onto I

    # mod-2 intersection numbers: the Poincare dual of one cycle on the other
    pd_cover = homology.poincare_duals(cover, lifted)
    pd_base = homology.poincare_duals(base, base_cycles)
    for i in range(4):
        for j in range(4):
            assert dot(pd_cover[j], lifted[i]) == dot(pd_base[j], base_cycles[i])

    # homology of the twisted mapping torus matches rank(I) + 1
    M = mapping_torus(cover, deck, 1)
    assert homology.betti(M, 1) == len(inv_space) + 1


def test_gf2_pairing_is_the_symplectic_form_mod_2():
    rng = random.Random(5)
    for g in range(1, 5):
        for _ in range(100):
            u, v = rng.getrandbits(2 * g), rng.getrandbits(2 * g)
            x, y = ([(w >> i) & 1 for i in range(2 * g)] for w in (u, v))
            assert gf2_pairing(u, v, g) == sym_pairing(x, y, g) % 2


def test_invariant_subspace_matches_complex_level():
    # handle swap on sigma_2: algebraic I(tau*) has rank 2
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    inv = invariant_subspace_gf2(swap)
    assert len(inv) == 2
    # restricted pairing is degenerate for this branched even-order example
    assert all(gf2_pairing(u, v, 2) == 0 for u in inv for v in inv)
