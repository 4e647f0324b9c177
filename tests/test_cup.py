import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from tricode import homology
from tricode.complexes import (DeltaComplex, build_sigma_g, build_sigma_g_rotsym, build_torus3,
                               product_with_circle)
from tricode.cup import cup_integrals, spine_edges, surface_intersection_form
from tricode.gf2 import vec_from_support

from conftest import (Cochain, coboundary, cup, integrate, leibniz_defect, named_dual_cocycles,
                      path_graph, single_triangle, tetrahedron_boundary, triple_cup_integral)


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


# -- the one kernel against the nested and per-triple references ----------------


def _random_cochains(K, rng, m):
    """m random 1-cochains of K, sparse enough that products often vanish."""
    return [rng.getrandbits(K.n_cells(1)) & rng.getrandbits(K.n_cells(1)) for _ in range(m)]


def test_cup_integrals_match_triple_reference_on_every_ordered_triple():
    # on arbitrary 1-cochains, not only cocycles, with repeats: the triples
    # of one call, and each ordered triple alone as slots (0, 1, 2)
    from test_hypergraph import cup_ladder

    rng = random.Random(31)
    for K in cup_ladder():
        cs = _random_cochains(K, rng, 4)
        ref = {t: triple_cup_integral(K, *(Cochain(1, cs[x]) for x in t))
               for t in itertools.product(range(4), repeat=3)}
        assert cup_integrals(K, cs) == [t for t in itertools.combinations_with_replacement(range(4), 3)
                                        if ref[t]], K.counts
        for t, want in ref.items():
            assert ((0, 1, 2) in cup_integrals(K, [cs[x] for x in t])) == bool(want), (K.counts, t)
        assert cup_integrals(K, []) == []


def test_cup_integrals_match_nested_reference_on_surfaces():
    # the full matrix, with no symmetry assumed: random cochains give
    # asymmetric ones; on the canonical basis it is the intersection form
    def nested(S, cs):
        return [[integrate(S, cup(S, Cochain(1, a), Cochain(1, b))) for b in cs] for a in cs]

    rng = random.Random(32)
    surfaces = [build(g) for g in (1, 2, 3, 4) for build in (build_sigma_g, build_sigma_g_rotsym)]
    for S in surfaces + [tetrahedron_boundary()]:
        basis = homology.canonical_basis(S, 1)[1]
        for cs in (_random_cochains(S, rng, 5), basis):
            got = cup_integrals(S, cs)
            assert [[(r >> j) & 1 for j in range(len(cs))] for r in got] == nested(S, cs), S.counts
        assert surface_intersection_form(S) == nested(S, basis), S.counts
    assert surface_intersection_form(tetrahedron_boundary()) == []


def pinched_sphere() -> DeltaComplex:
    """The tetrahedron boundary with vertices 0 and 1 identified: a closed
    2-complex with b_1 = 1, whose one class squares to 0."""
    S, merge = tetrahedron_boundary(), (0, 0, 1, 2)
    return DeltaComplex([[()] * 3, [tuple(merge[v] for v in fs) for fs in S.face[1]], S.face[2]])


@pytest.mark.parametrize("K, why", [
    (build_torus3(), "intersection form needs a 2-complex"),
    (single_triangle(), "intersection form needs a closed surface"),
    (pinched_sphere(), "degenerate intersection form (non-closed or non-surface input)"),
], ids=["3-complex", "open", "degenerate"])
def test_surface_form_refusals(K, why):
    with pytest.raises(ValueError, match=re.escape(why)):
        surface_intersection_form(K)


def test_cup_integrals_need_a_surface_or_a_3_complex():
    with pytest.raises(ValueError, match="need a 2- or 3-complex"):
        cup_integrals(path_graph(3), [1])
