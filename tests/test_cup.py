import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tricode import homology
from tricode.complexes import build_sigma_g, build_torus3, product_with_circle
from tricode.cup import (
    Cochain,
    cup,
    integrate,
    named_dual_cocycles,
    spine_edges,
    surface_intersection_form,
    triple_cup_integral,
)
from tricode.gf2 import dot, vec_from_support

from conftest import coboundary, leibniz_defect, path_graph, single_triangle


def test_coboundary_vertex_on_path():
    # d of a vertex indicator is the sum of incident edge indicators
    P = path_graph(4)
    v = Cochain(0, vec_from_support([2]))
    dv = coboundary(P, v)
    assert dv.values == vec_from_support([1, 2])  # edges 1-2 and 2-3


def test_coboundary_of_cocycle_vanishes(t3):
    for c in homology.canonical_basis(t3, 1)[1]:
        assert coboundary(t3, Cochain(1, c)).values == 0


def test_dd_zero_random(t3):
    rng = random.Random(2)
    for _ in range(50):
        c0 = Cochain(0, rng.getrandbits(t3.n_cells(0)))
        assert coboundary(t3, coboundary(t3, c0)).values == 0
        c1 = Cochain(1, rng.getrandbits(t3.n_cells(1)))
        assert coboundary(t3, coboundary(t3, c1)).values == 0


def test_cup_on_single_triangle():
    T = single_triangle()
    a = Cochain(1, vec_from_support([0]))  # edge [v0 v1]
    b = Cochain(1, vec_from_support([2]))  # edge [v1 v2]
    assert cup(T, a, b).values == 1  # evaluates 1 on the triangle
    assert cup(T, b, a).values == 0
    assert cup(T, Cochain(1, 0), b).values == 0


def test_cup_degree_overflow(sigma2):
    a = Cochain(1, 1)
    b = Cochain(2, 1)
    with pytest.raises(ValueError):
        cup(sigma2, a, b)


def test_leibniz_random(t3):
    rng = random.Random(3)
    for _ in range(100):
        a = Cochain(1, rng.getrandbits(t3.n_cells(1)))
        b = Cochain(1, rng.getrandbits(t3.n_cells(1)))
        assert leibniz_defect(t3, a, b) == 0
        v = Cochain(0, rng.getrandbits(t3.n_cells(0)))
        assert leibniz_defect(t3, v, a) == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1))
def test_leibniz_hypothesis(av, bv):
    K = build_torus3()
    assert leibniz_defect(K, Cochain(1, av & ((1 << 7) - 1)), Cochain(1, bv & ((1 << 7) - 1))) == 0


def test_triple_cup_t3_coordinates(t3):
    d = named_dual_cocycles(t3)
    for perm in itertools.permutations("abc"):
        assert triple_cup_integral(t3, d[perm[0]], d[perm[1]], d[perm[2]]) == 1


def test_spine_edges_are_consecutive_vertex_pairs():
    from test_hypergraph import cup_ladder

    for K in cup_ladder():
        for n in (2, 3):
            assert spine_edges(K, n) == [
                tuple(K.iterated_face(n, s, (i - 1, i))[1] for i in range(1, n + 1))
                for s in range(K.n_cells(n))], (K.counts, n)
    assert spine_edges(build_sigma_g(2), 3) == []


def test_triple_cup_matches_nested(t3):
    rng = random.Random(4)
    for _ in range(100):
        a = Cochain(1, rng.getrandbits(7))
        b = Cochain(1, rng.getrandbits(7))
        c = Cochain(1, rng.getrandbits(7))
        nested = integrate(t3, cup(t3, cup(t3, a, b), c))
        assert triple_cup_integral(t3, a, b, c) == nested


def test_triple_cup_repeated_argument(t3):
    # no symmetry is assumed: a = b evaluates the literal integral
    d = named_dual_cocycles(t3)
    a, c = d["a"], d["c"]
    nested = integrate(t3, cup(t3, cup(t3, a, a), c))
    assert triple_cup_integral(t3, a, a, c) == nested


def test_gauge_invariance(t3):
    # adding a coboundary to the first argument never changes the integral
    # when the others are cocycles and the complex is closed
    d = named_dual_cocycles(t3)
    rng = random.Random(5)
    base = triple_cup_integral(t3, d["a"], d["b"], d["c"])
    for _ in range(100):
        lam = Cochain(0, rng.getrandbits(t3.n_cells(0)))
        shifted = Cochain(1, d["a"].values ^ coboundary(t3, lam).values)
        assert triple_cup_integral(t3, shifted, d["b"], d["c"]) == base


def test_stokes(t3):
    rng = random.Random(6)
    for _ in range(100):
        w = Cochain(2, rng.getrandbits(t3.n_cells(2)))
        assert integrate(t3, coboundary(t3, w)) == 0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_surface_intersection_form(g):
    S = build_sigma_g(g)
    duals = named_dual_cocycles(S)
    names = [f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)]
    M = [[integrate(S, cup(S, duals[x], duals[y])) for y in names] for x in names]
    for i in range(2 * g):
        for j in range(2 * g):
            expect = 1 if {names[i][0], names[j][0]} == {"a", "b"} and names[i][1:] == names[j][1:] else 0
            assert M[i][j] == expect
    # on the canonical basis: symmetric, of size b_1 (invertibility is checked inside)
    M = surface_intersection_form(S)
    assert len(M) == 2 * g and M == [list(r) for r in zip(*M)]


def test_torus_form_is_standard_symplectic():
    S = build_sigma_g(1)
    duals = named_dual_cocycles(S)
    a1, b1 = duals["a1"], duals["b1"]
    M = [[integrate(S, cup(S, x, y)) for y in (a1, b1)] for x in (a1, b1)]
    assert M == [[0, 1], [1, 0]]


def test_surface_form_rejects_open_complex():
    with pytest.raises(ValueError):
        surface_intersection_form(single_triangle())


def test_invariant_three_cycles_of_t5_twist(sigma2):
    # the three twist-invariant classes a1, b1, a2: exactly one pair meets once
    duals = named_dual_cocycles(sigma2)
    trio = [duals["a1"], duals["b1"], duals["a2"]]
    vals = {
        (i, j): integrate(sigma2, cup(sigma2, trio[i], trio[j]))
        for i in range(3)
        for j in range(i + 1, 3)
    }
    assert sorted(vals.values()) == [0, 0, 1]
    assert vals[(0, 1)] == 1


@pytest.mark.parametrize("g", [1, 2, 3])
def test_product_triples(g):
    P = product_with_circle(build_sigma_g(g), 1)
    d = named_dual_cocycles(P)
    names = list(d)
    units = []
    for i, j, k in itertools.combinations(range(len(names)), 3):
        if triple_cup_integral(P, d[names[i]], d[names[j]], d[names[k]]):
            units.append({names[i], names[j], names[k]})
    assert units == [{f"a{i}", f"b{i}", "c"} for i in range(1, g + 1)]


def test_class_invariance_on_cohomology_classes(t3):
    # the triple integral only depends on classes: shifting any slot by a
    # coboundary of a random 0-cochain is invisible
    d = named_dual_cocycles(t3)
    rng = random.Random(9)
    args = [d["a"], d["b"], d["c"]]
    base = triple_cup_integral(t3, *args)
    for slot in range(3):
        for _ in range(30):
            lam = Cochain(0, rng.getrandbits(t3.n_cells(0)))
            shifted = list(args)
            shifted[slot] = Cochain(1, args[slot].values ^ coboundary(t3, lam).values)
            assert triple_cup_integral(t3, *shifted) == base
