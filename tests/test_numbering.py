"""The closed-form numbering of generated complexes against the keyed
builders of ``conftest``: T^3, the surfaces, mapping tori, cyclic covers and
the handle rotation must come out cell for cell as the keyed builders
number them, with the same labels and named cycles in the same dict order
(``homology.logical_basis`` reads the cycles in that order), the same deck
permutations and the same refusal text."""

import random

import pytest

from tricode import homology
from tricode.complexes import (SimplicialAutomorphism, barycentric_subdivide, build_point,
                               build_sigma_g, build_sigma_g_rotsym, build_torus3, cyclic_cover,
                               mapping_torus, product_with_circle, rotation_automorphism,
                               sheet_projection)

from conftest import (keyed_cyclic_cover, keyed_mapping_torus, keyed_rotation_automorphism,
                      keyed_sigma_g, keyed_sigma_g_rotsym, keyed_torus3)


def assert_same(got, want):
    assert got.face == want.face
    assert list(got.labels.items()) == list(want.labels.items())
    assert list(got.cycles.items()) == list(want.cycles.items())


BASES = {
    "T3": build_torus3,
    "point": build_point,
    "circle": lambda: product_with_circle(build_point()),
    **{f"Sigma_{g}": lambda g=g: build_sigma_g(g) for g in (1, 2, 3)},
    **{f"sigma-rot:{g}": lambda g=g: build_sigma_g_rotsym(g) for g in (1, 2, 3)},
    "sd(T3)": lambda: barycentric_subdivide(build_torus3()).complex,
}


def test_hand_described_complexes_match_keyed_builders():
    assert_same(build_torus3(), keyed_torus3())
    for g in range(1, 7):
        assert_same(build_sigma_g(g), keyed_sigma_g(g))
        assert_same(build_sigma_g_rotsym(g), keyed_sigma_g_rotsym(g))


def test_rotation_matches_the_label_parsing_reference():
    for g in range(1, 7):
        K = build_sigma_g_rotsym(g)
        for handles in range(g + 1):
            got = rotation_automorphism(K, g, handles).perm
            assert got == keyed_rotation_automorphism(keyed_sigma_g_rotsym(g), g, handles).perm


@pytest.mark.parametrize("name", list(BASES))
def test_mapping_tori_match_keyed_builder(name):
    K = BASES[name]()
    twists = [SimplicialAutomorphism.identity(K)]
    if name.startswith("sigma-rot"):
        g = int(name.split(":")[1])
        twists += [rotation_automorphism(K, g, h) for h in range(g + 1)]
    for phi in twists:
        for layers in (1, 2, 3):
            assert_same(mapping_torus(K, phi, layers), keyed_mapping_torus(K, phi, layers))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_t3_covers_match_keyed_builder(L):
    cur = build_torus3()
    letters = [cur.labels[(1, e)] for e in range(cur.n_cells(1))]
    for direction in "abc":
        cochain = {e: 1 for e, lab in enumerate(letters) if direction in lab}
        cover, deck = cyclic_cover(cur, cochain, L)
        want, want_deck = keyed_cyclic_cover(cur, cochain, L)
        assert_same(cover, want)
        assert deck.perm == want_deck.perm
        # the projection i mod N_p commutes with every face map
        proj = sheet_projection(cur, cover, L)
        for p in range(1, cover.dims + 1):
            for i, fs in enumerate(cover.face[p]):
                assert tuple(proj[p - 1][f] for f in fs) == cur.face[p][proj[p][i]]
        letters = [letters[proj[1][e]] for e in range(cover.n_cells(1))]
        cur = cover
    assert cur.counts == [L ** 3 * c for c in build_torus3().counts]


def integer_cocycles(K, m: int) -> list[dict[int, int]]:
    """Signed 1-cocycles mod m: the coboundary of each vertex, the T^3
    direction cocycles (1 on edges whose label holds the letter) and, for
    even m, m/2 times each GF(2) cocycle of a homology basis."""
    out = []
    for v in range(K.n_cells(0)):
        out.append({e: (d0 == v) - (d1 == v) for e, (d0, d1) in enumerate(K.face[1])})
    for letter in "abc":
        out.append({e: 1 for (d, e), lab in K.labels.items() if d == 1 and letter in lab})
    if m % 2 == 0:
        for z in homology.canonical_basis(K, 1)[1]:
            out.append({e: m // 2 for e in range(K.n_cells(1)) if z >> e & 1})
    return [c for c in out if c]


def test_random_cochains_match_keyed_builder():
    rng = random.Random(2025)
    bases = [build_torus3(), product_with_circle(build_sigma_g(2), 1),
             product_with_circle(build_sigma_g(2), 2)]
    outcomes = {"cover": 0, "refused": 0}
    for _ in range(60):
        K, m = rng.choice(bases), rng.randint(1, 4)
        cochain: dict[int, int] = {}
        for c in integer_cocycles(K, m):
            k = rng.randint(-2, 2)
            for e, x in c.items():
                cochain[e] = cochain.get(e, 0) + k * x
        if rng.random() < 0.5:  # one edge off: usually no longer a cocycle
            cochain[rng.randrange(K.n_cells(1))] = rng.randint(-m, m)
        try:
            want = keyed_cyclic_cover(K, cochain, m)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                cyclic_cover(K, cochain, m)
            assert str(got.value) == str(exc)
            outcomes["refused"] += 1
            continue
        cover, deck = cyclic_cover(K, cochain, m)
        assert_same(cover, want[0])
        assert deck.perm == want[1].perm
        outcomes["cover"] += 1
    assert min(outcomes.values()) >= 10, outcomes
