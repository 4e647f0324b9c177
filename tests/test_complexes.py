import dataclasses
import random
import re

import pytest

from tricode import homology
from tricode.complexes import (
    DeltaComplex,
    SimplicialAutomorphism,
    barycentric_subdivide,
    build_point,
    build_sigma_g,
    build_sigma_g_rotsym,
    build_torus3,
    cyclic_cover,
    is_closed,
    mapping_torus,
    product_with_circle,
    rotation_automorphism,
    validate,
    validate_automorphism,
)

from conftest import del_del_nonzero, single_triangle, tetrahedron_boundary


def count_cube_paths():
    # independent oracle for the T^3 cell counts: monotone disjoint-step paths
    import itertools

    subsets = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(range(3), r)]
    counts = [1]
    for n in (1, 2, 3):
        total = 0
        for steps in itertools.product(subsets, repeat=n):
            used: set = set()
            ok = True
            for st in steps:
                if used & st:
                    ok = False
                    break
                used |= st
            total += ok
        counts.append(total)
    return counts


def test_torus3_counts(t3):
    assert t3.counts == count_cube_paths() == [1, 7, 12, 6]


def test_torus3_valid_closed(t3):
    assert validate(t3) == []
    assert is_closed(t3)


def test_torus3_betti(t3):
    assert homology.betti_all(t3) == (1, 3, 3, 1)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_sigma_g(g):
    S = build_sigma_g(g)
    assert validate(S) == []
    assert is_closed(S)
    assert homology.betti_all(S) == (1, 2 * g, 1)
    labels = sorted(v for v in S.labels.values())
    assert labels == sorted([f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)])


def test_sigma_g_rejects_sphere():
    with pytest.raises(ValueError):
        build_sigma_g(0)


def test_torus_counts_match_sigma1():
    assert build_sigma_g(1).counts == [1, 3, 2]


@pytest.mark.parametrize("g,layers,b1", [(1, 1, 3), (2, 2, 5), (3, 1, 7)])
def test_product_with_circle_betti(g, layers, b1):
    P = product_with_circle(build_sigma_g(g), layers)
    assert validate(P) == []
    assert is_closed(P)
    assert homology.betti(P, 1) == b1


def test_product_point_circle():
    C = product_with_circle(build_point(), 3)
    assert C.counts == [3, 3]
    assert homology.betti(C, 1) == 1


def test_product_t2_has_t3_counts(t3):
    P = product_with_circle(build_sigma_g(1), 1)
    assert P.counts == t3.counts


def test_mapping_torus_identity_is_product(sigma2):
    ident = SimplicialAutomorphism.identity(sigma2)
    M = mapping_torus(sigma2, ident, 1)
    P = product_with_circle(sigma2, 1)
    assert M.face == P.face


def test_mapping_torus_rotation_betti():
    R = build_sigma_g_rotsym(2)
    phi = rotation_automorphism(R, 2, 1)
    assert phi.perm != SimplicialAutomorphism.identity(R).perm
    assert all(p[p[i]] == i for p in phi.perm for i in range(len(p)))  # order 2
    assert validate_automorphism(R, phi) == []
    M = mapping_torus(R, phi, 1)
    assert validate(M) == []
    # rank of the invariant subspace of the handle swap is 2, plus the base class
    assert homology.betti(M, 1) == 3


def test_mapping_torus_layers(sigma2):
    M = mapping_torus(sigma2, SimplicialAutomorphism.identity(sigma2), 2)
    assert homology.betti(M, 1) == 5


def test_mapping_torus_bad_twist(sigma2):
    perm = [list(range(c)) for c in sigma2.counts]
    perm[1][0], perm[1][1] = perm[1][1], perm[1][0]  # break face-map compatibility
    with pytest.raises(ValueError, match="twist incompatible"):
        mapping_torus(sigma2, SimplicialAutomorphism(perm), 1)


def test_euler_characteristic_matches_betti():
    for K in (build_torus3(), build_sigma_g(2), product_with_circle(build_sigma_g(2), 1)):
        chi_cells = K.euler_characteristic()
        chi_betti = sum((-1) ** n * homology.betti(K, n) for n in range(K.dims + 1))
        assert chi_cells == chi_betti


def edited(K: DeltaComplex, n: int, s: int, faces) -> list:
    """K's face lists with the n-simplex s given the faces ``faces``."""
    face = [list(f) for f in K.face]
    face[n][s] = tuple(faces)
    return face


def test_validator_detects_range_violation(t3):
    # the complex is refused when it is constructed, before any pass reads it
    face = edited(t3, 2, 0, (t3.face[2][0][0], 99, t3.face[2][0][2]))
    with pytest.raises(ValueError, match=r"^2-simplex 0: face 1 index 99 out of range$"):
        DeltaComplex(face)


def test_validator_detects_identity_violation(t3):
    # swap two faces of one tetrahedron: breaks d_i d_j = d_{j-1} d_i, and the
    # construction refuses it with the first three violations
    f0, f1, f2, f3 = t3.face[3][0]
    with pytest.raises(ValueError, match=r"^3-simplex 0: d_\d d_\d != d_\d d_\d; "
                                         r".*; and \d+ more$") as err:
        DeltaComplex(edited(t3, 3, 0, (f1, f0, f2, f3)))
    assert str(err.value).count("3-simplex 0: d_") == 3


def test_named_cycles_must_be_closed(t3):
    with pytest.raises(ValueError, match=r"^cycle 'axb': not closed, del z != 0$"):
        DeltaComplex(t3.face, t3.labels, {**t3.cycles, "axb": (2, (0,))})
    with pytest.raises(ValueError, match=r"^cycle 'a': cell index out of range$"):
        DeltaComplex(t3.face, t3.labels, {"a": (1, (7,))})
    K = DeltaComplex(t3.face, t3.labels, {**t3.cycles, "axb+axc": (2, (0, 1, 3, 6))})
    with pytest.raises(dataclasses.FrozenInstanceError):
        K.cycles = {}


def test_label_keys_must_name_cells(t3):
    # a label on no cell used to construct, and serialize dropped it on write
    for key in [(1, 5), (0, 1), (-1, 0), (4, 0), (0, 0, 0), "a", (0, "0")]:
        with pytest.raises(ValueError, match=rf"^label key {re.escape(repr(key))}: "
                                             r"not a \(dim, index\) pair of a cell$"):
            DeltaComplex([[()]], {key: "x"})
    assert DeltaComplex([[()]], {(0, 0): "v"}).label(0, 0) == "v"
    assert DeltaComplex(t3.face, t3.labels, t3.cycles) == t3


RANDOM_EDIT_COMPLEXES = {
    "T3": build_torus3,
    "Sigma_2": lambda: build_sigma_g(2),
    "sigma-rot:2": lambda: build_sigma_g_rotsym(2),
    "T2 x S1, 2 layers": lambda: product_with_circle(build_sigma_g(1), 2),
    "sd(triangle)": lambda: barycentric_subdivide(single_triangle()).complex,
    "S2": tetrahedron_boundary,
}


def test_identities_imply_del_del_zero_under_random_face_edits():
    # whenever a face-edited complex is accepted, the order-blind oracle finds
    # del del = 0; the identities also refuse some edits the oracle misses
    outcomes = set()
    for name, build in RANDOM_EDIT_COMPLEXES.items():
        K, rng = build(), random.Random(name)
        for _ in range(300):
            face = [list(f) for f in K.face]
            for _ in range(rng.choice((1, 1, 2))):
                n = rng.randrange(1, K.dims + 1)
                s = rng.randrange(len(face[n]))
                fs = list(face[n][s])
                if rng.random() < 0.5:
                    fs[rng.randrange(n + 1)] = rng.randrange(len(face[n - 1]))
                else:
                    i, j = rng.sample(range(n + 1), 2)
                    fs[i], fs[j] = fs[j], fs[i]
                face[n][s] = tuple(fs)
            del_del = any(del_del_nonzero(face, n) for n in range(2, K.dims + 1))
            try:
                DeltaComplex(face)
            except ValueError as exc:
                assert " d_" in str(exc), name
                outcomes.add(("refused", del_del))
            else:
                assert not del_del, name
                outcomes.add(("accepted", False))
    assert outcomes == {("refused", True), ("refused", False), ("accepted", False)}


def test_subdivide_single_triangle():
    sub = barycentric_subdivide(single_triangle())
    assert sub.complex.counts == [7, 12, 6]
    assert validate(sub.complex) == []


def test_subdivide_t3_flags(t3):
    sub = barycentric_subdivide(t3)
    assert sub.complex.n_cells(3) == 6 * 24
    # a vertex of sd(T^3) is the barycentre of a cell of T^3, by dimension
    assert [sub.complex.labels[(0, i)] for i in range(26)] == [
        f"bary:{t3.label(d, s)}" for d in range(4) for s in range(t3.n_cells(d))]


def test_subdivide_preserves_betti(t3, sigma2):
    for K in (t3, sigma2):
        sub = barycentric_subdivide(K)
        assert validate(sub.complex) == []
        assert homology.betti_all(sub.complex) == homology.betti_all(K)


def test_orientation_signs(t3, sigma2):
    from tricode.complexes import orientation_signs

    for K in (t3, sigma2, product_with_circle(build_sigma_g(2), 1)):
        eps = orientation_signs(K)
        assert eps is not None
        assert set(eps) <= {1, -1}
        # signed top chain is an integer cycle
        acc = {}
        for t, fs in enumerate(K.face[K.dims]):
            for i, f in enumerate(fs):
                acc[f] = acc.get(f, 0) + eps[t] * (-1 if i % 2 else 1)
        assert all(v == 0 for v in acc.values())


def test_subdivision_flag_signs_alternate(t3):
    # the canonical colouring (permutation parity x ambient orientation)
    # alternates across every shared 2-face of the subdivision
    from tricode.codes import color_code

    code = color_code(t3)
    sub = barycentric_subdivide(t3)
    sd = sub.complex
    D = sd.dims
    signs = code.meta["signs"]
    by_face = {}
    for s in range(sd.n_cells(D)):
        for f in sd.face[D][s]:
            by_face.setdefault(f, []).append(s)
    for f, flags in by_face.items():
        if len(flags) == 2:
            assert signs[flags[0]] != signs[flags[1]]


def test_tetrahedron_boundary_is_sphere():
    S = tetrahedron_boundary()
    assert validate(S) == []
    assert is_closed(S)
    assert homology.betti_all(S) == (1, 0, 1)


def test_cyclic_cover_triple():
    S2 = build_sigma_g(2)
    assert S2.labels[(1, 0)] == "a1"
    cover, deck = cyclic_cover(S2, {0: 1, 4: 1}, 3)  # a mod-3 cocycle, 1 on a1
    assert validate(cover) == []
    assert cover.euler_characteristic() == 3 * S2.euler_characteristic()
    assert homology.betti(cover, 1) == 8  # genus 4
    assert all(p[p[p[i]]] == i for p in deck.perm for i in range(len(p)))  # order 3
    assert all(deck.perm[0][v] != v for v in range(cover.n_cells(0)))  # free


def test_cyclic_cover_rejects_non_cocycle():
    S2 = build_sigma_g(2)
    with pytest.raises(ValueError, match=r"^cochain is not a cocycle mod 3: 2-simplex \d+: d_"):
        cyclic_cover(S2, {0: 1}, 3)  # a single edge (a1) is not a mod-3 cocycle here
    for m in (0, -2):  # no sheets: the labels would point at no cell
        with pytest.raises(ValueError, match="needs m >= 1 sheets"):
            cyclic_cover(S2, {}, m)


def test_named_cycles_are_cycles(t3, s2xs1):
    for K in (t3, s2xs1):
        for nm, (d, cells) in K.cycles.items():
            from tricode.gf2 import vec_from_support

            z = vec_from_support(cells)
            assert homology.boundary_matrix(K, d).matvec(z) == 0, nm
