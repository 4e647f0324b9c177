import dataclasses
import random
import sys

import pytest

from tricode import gf2, homology
from tricode.complexes import (barycentric_subdivide, build_point, build_sigma_g,
                               build_sigma_g_rotsym, build_torus3, mapping_torus,
                               product_with_circle, rotation_automorphism)
from tricode.cup import named_dual_cocycles
from tricode.gf2 import BitMatrix, dot, extend_basis, solve_augmented, vec_from_support

from conftest import chain_spaces, row_reduce, tetrahedron_boundary


def test_betti_t3(t3):
    assert homology.betti(t3, 1) == 3


@pytest.mark.parametrize("g", [1, 2, 3])
def test_betti_products(g):
    P = product_with_circle(build_sigma_g(g), 1)
    assert homology.betti(P, 1) == 2 * g + 1


def test_betti_connected(sigma2):
    assert homology.betti(sigma2, 0) == 1


def test_rank_nullity(t3, s2xs1):
    for K in (t3, s2xs1):
        for n in range(1, K.dims + 1):
            M = homology.boundary_matrix(K, n)
            kernel = len(M.nullspace())
            assert M.rank() + kernel == K.n_cells(n)


def test_poincare_duality_closed_presets(t3, s2xs1, t2xs1_2layers):
    for K in (t3, s2xs1, t2xs1_2layers):
        for n in range(4):
            assert homology.betti(K, n) == homology.betti(K, 3 - n)


def test_homology_basis_t3(t3):
    cycles, cocycles = homology.canonical_basis(t3, 1)
    assert len(cycles) == 3
    pairing = [vec_from_support(j for j, c in enumerate(cocycles) if dot(c, z)) for z in cycles]
    assert pairing == [1, 2, 4]
    d1 = homology.boundary_matrix(t3, 1)
    delta1 = homology.boundary_matrix(t3, 2).transpose()
    for z in cycles:
        assert d1.matvec(z) == 0
    for c in cocycles:
        assert delta1.matvec(c) == 0


def test_homology_basis_sphere_empty():
    S = tetrahedron_boundary()
    assert homology.canonical_basis(S, 1) == ([], [])


def test_named_cycles_span_h1(t3):
    cycles, cocycles = homology.canonical_basis(t3, 1)
    _, boundaries, _, _ = chain_spaces(t3, 1)
    span = cycles + boundaries
    classes = []
    for nm in ("a", "b", "c"):
        z = homology.named_cycle_vector(t3, nm)
        assert not extend_basis(span, [z]), nm
        classes.append(vec_from_support(j for j, c in enumerate(cocycles) if dot(c, z)))
    assert len(row_reduce(classes)[0]) == 3  # the named classes span H_1


def test_poincare_dual_t3(t3):
    zab = homology.named_cycle_vector(t3, "axb")
    pd = homology.poincare_duals(t3, [zab])[0]
    pairings = {nm: dot(pd, homology.named_cycle_vector(t3, nm)) for nm in ("a", "b", "c")}
    assert pairings == {"a": 0, "b": 0, "c": 1}


def test_poincare_dual_boundary_is_trivial(t3):
    b = chain_spaces(t3, 2)[1][0]
    pd = homology.poincare_duals(t3, [b])[0]
    assert all(dot(pd, z) == 0 for z in homology.canonical_basis(t3, 1)[0])


def test_poincare_dual_rejects_non_cycle(t3):
    with pytest.raises(ValueError, match="not a 2-cycle"):
        homology.poincare_duals(t3, [1 << 0])


def test_poincare_dual_round_trip(t3):
    cycles1 = homology.canonical_basis(t3, 1)[0]
    rows = []
    for z2 in homology.canonical_basis(t3, 2)[0]:
        pd = homology.poincare_duals(t3, [z2])[0]
        rows.append(vec_from_support(j for j, z1 in enumerate(cycles1) if dot(pd, z1)))
    from tricode.gf2 import invert

    assert invert(rows, len(rows)) is not None


def _duals_against(monkeypatch, K, zs, betas):
    """poincare_duals(K, zs) with the q-cocycles ``betas`` standing in for the
    H^q class representatives, q = dims - 1."""
    reps = homology.representatives
    with monkeypatch.context() as mp:
        mp.setattr(homology, "representatives",
                   lambda K_, n: (betas, reps(K_, n)[1]) if n == K.dims - 1 else reps(K_, n))
        return homology.poincare_duals(K, zs)


def test_poincare_dual_class_independent_of_basis(t3, monkeypatch):
    # recombining the 2-cocycle basis changes the linear system but not the class
    zab = homology.named_cycle_vector(t3, "axb")
    pd1 = homology.poincare_duals(t3, [zab])[0]
    cycles1 = homology.canonical_basis(t3, 1)[0]
    base = homology.canonical_basis(t3, 2)[1]
    rng = random.Random(5)
    for _ in range(10):
        mixed = list(base)
        for i in range(len(mixed)):
            for j in range(len(mixed)):
                if i != j and rng.random() < 0.4:
                    mixed[i] ^= mixed[j]
        if len(row_reduce(mixed)[0]) != len(base):
            continue
        pd2 = _duals_against(monkeypatch, t3, [zab], mixed)[0]
        assert all(dot(pd1, z) == dot(pd2, z) for z in cycles1)


def test_row_reduce_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        rows = [rng.getrandbits(12) for _ in range(6)]
        once, piv1 = row_reduce(rows)
        twice, piv2 = row_reduce(once)
        assert once == twice and piv1 == piv2


def incremental_row_reduce(rows):
    """Reference: reduce each row by every basis row, then clear its pivot
    from the basis (the RREF is unique, so any elimination order agrees)."""
    basis, pivots = [], []
    for r in rows:
        for b, p in zip(basis, pivots):
            if (r >> p) & 1:
                r ^= b
        if r == 0:
            continue
        p = (r & -r).bit_length() - 1
        for i in range(len(basis)):
            if (basis[i] >> p) & 1:
                basis[i] ^= r
        basis.append(r)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def test_row_reduce_matches_incremental_reference(t2xs1_2layers, s2xs1):
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 70)
        sparse = rng.random() < 0.5
        rows = [rng.getrandbits(n) & (rng.getrandbits(n) if sparse else -1)
                for _ in range(rng.randint(0, 50))]
        assert row_reduce(rows) == incremental_row_reduce(rows)
    for K in (t2xs1_2layers, s2xs1):
        for p in (1, 2, 3):
            rows = homology.boundary_matrix(K, p).rows
            assert row_reduce(rows) == incremental_row_reduce(rows)


def solve(M, b):
    """One solution x of M x = b through solve_augmented, or None."""
    rows = [r | ((b >> i) & 1) << M.ncols for i, r in enumerate(M.rows)]
    return solve_augmented(rows, M.ncols, 1)[0]


def test_bitmatrix_solve_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        M = BitMatrix(nr, nc, [rng.getrandbits(nc) for _ in range(nr)])
        x = rng.getrandbits(nc)
        b = M.matvec(x)
        sol = solve(M, b)
        assert sol is not None and M.matvec(sol) == b


def gauss_jordan_solve(M, b):
    """Reference: Gauss-Jordan column by column, first free row as pivot; the
    solution with every free variable zero, or None if inconsistent."""
    rows = list(M.rows)
    rhs = [(b >> i) & 1 for i in range(M.nrows)]
    pivots = []
    for j in range(M.ncols):
        sel = None
        for i in range(len(rows)):
            if i in (p[0] for p in pivots):
                continue
            if (rows[i] >> j) & 1:
                sel = i
                break
        if sel is None:
            continue
        for i in range(len(rows)):
            if i != sel and (rows[i] >> j) & 1:
                rows[i] ^= rows[sel]
                rhs[i] ^= rhs[sel]
        pivots.append((sel, j))
    x = 0
    used = set()
    for i, j in pivots:
        used.add(i)
        if rhs[i]:
            x |= 1 << j
    if any(rhs[i] for i in range(M.nrows) if i not in used):
        return None
    return x


def test_solve_matches_gauss_jordan_reference():
    rng = random.Random(21)
    inconsistent = 0
    for _ in range(600):
        nr, nc = rng.randint(1, 14), rng.randint(1, 14)
        sparse = rng.random() < 0.5
        M = BitMatrix(nr, nc, [rng.getrandbits(nc) & (rng.getrandbits(nc) if sparse else -1)
                               for _ in range(nr)])
        b = M.matvec(rng.getrandbits(nc)) if rng.random() < 0.5 else rng.getrandbits(nr)
        ref = gauss_jordan_solve(M, b)
        assert solve(M, b) == ref
        inconsistent += ref is None
    assert inconsistent > 50  # both outcomes are exercised


def test_solve_augmented_equals_one_solve_per_rhs():
    rng = random.Random(22)
    for _ in range(200):
        nr, nc, m = rng.randint(1, 12), rng.randint(1, 12), rng.randint(0, 6)
        M = BitMatrix(nr, nc, [rng.getrandbits(nc) for _ in range(nr)])
        bs = [rng.getrandbits(nr) for _ in range(m)]
        rows = [r | vec_from_support(j for j, b in enumerate(bs) if (b >> i) & 1) << nc
                for i, r in enumerate(M.rows)]
        assert solve_augmented(rows, nc, m) == [gauss_jordan_solve(M, b) for b in bs]


def _closed_3_complexes():
    base = build_sigma_g_rotsym(2)
    return [build_torus3(), product_with_circle(build_sigma_g(2), 2),
            mapping_torus(base, rotation_automorphism(base, 2, 1), 1)]


def test_poincare_duals_batch_equals_single_solves():
    rng = random.Random(23)
    for K in _closed_3_complexes():
        cycles2 = homology.canonical_basis(K, 2)[0]
        _, boundaries, _, _ = chain_spaces(K, 2)
        named = [vec_from_support(cells) for d, cells in K.cycles.values() if d == 2]
        zs = named + cycles2 + [0]
        for _ in range(4):  # random homologous representatives
            z = 0
            for v in cycles2 + boundaries:
                if rng.random() < 0.5:
                    z ^= v
            zs.append(z)
        assert homology.poincare_duals(K, zs) == [homology.poincare_duals(K, [z])[0] for z in zs]
        assert homology.poincare_duals(K, []) == []


def test_poincare_duals_reject_a_non_cycle_anywhere(t3):
    zs = [homology.named_cycle_vector(t3, nm) for nm in ("axb", "axc", "bxc")]
    for pos in range(len(zs) + 1):
        with pytest.raises(ValueError, match="not a 2-cycle"):
            homology.poincare_duals(t3, zs[:pos] + [1 << 0] + zs[pos:])


def test_logical_labels_match_per_name_reference(t3, s2xs1, t2xs1_2layers):
    for K in (t3, s2xs1, t2xs1_2layers):
        names, cycles, _ = homology.logical_basis(K)
        named2 = [nm for nm, (d, _) in K.cycles.items() if d == 2]
        expect = []
        for z in cycles:
            hits = [nm for nm in named2
                    if dot(homology.poincare_duals(K, [homology.named_cycle_vector(K, nm)])[0], z)]
            expect.append(hits[0] if len(hits) == 1 else None)
        assert None not in expect and len(set(expect)) == len(expect)
        assert homology.logical_labels(K, names, cycles) == expect
    S = build_sigma_g(2)  # not a 3-complex: the named 1-cycles
    names, cycles, _ = homology.logical_basis(S)
    assert names and homology.logical_labels(S, names, cycles) == names
    K = dataclasses.replace(t3, cycles={})  # no named cycles: h0, h1, ...
    assert homology.logical_labels(K, *homology.logical_basis(K)[:2]) == ["h0", "h1", "h2"]


def test_logical_labels_ambiguous_and_undefined(t3):
    from test_hypergraph import ambiguous_t3s
    from tricode.codes import toric_code
    from tricode.hypergraph import form_from_cup

    # an extra named 2-cycle axb + axc pairs with both b and c, and the
    # named 1-cycles c and a + c both meet axb alone: the 1-cycle names
    for K, want in zip(ambiguous_t3s(t3), (["a", "b", "c"], ["c", "ca", "b"])):
        assert homology.logical_labels(K, *homology.logical_basis(K)[:2]) == want
        assert toric_code(K, 1).logical_labels() == [(lab, 1) for lab in want]
        assert form_from_cup(K).labels == want
    with pytest.raises(ValueError, match="not closed"):  # a named cycle must be a cycle
        dataclasses.replace(t3, cycles={**t3.cycles, "axb+axc": (2, (0,))})
    # T^3 without its first tetrahedron: the named 2-cycles have no Poincare
    # duals, so the 1-cycle names
    K = dataclasses.replace(t3, face=t3.face[:3] + [t3.face[3][1:]])
    assert homology.logical_labels(K, *homology.logical_basis(K)[:2]) == ["a", "b", "c"]


def test_named_basis_returns_dual_cocycles(t3):
    names, cycles, cocycles = homology.logical_basis(t3)
    assert names == ["a", "b", "c"]
    assert not any(homology.boundary_matrix(t3, 2).transpose().matvec(c) for c in cocycles)
    assert [[dot(c, z) for c in cocycles] for z in cycles] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # too few named cycles, or named cycles that are not a basis: the canonical basis
    K = dataclasses.replace(t3, cycles={nm: z for nm, z in t3.cycles.items() if nm != "c"})
    canonical = (None, *homology.canonical_basis(K, 1))
    assert homology.logical_basis(K) == canonical
    K = dataclasses.replace(t3, cycles={**t3.cycles, "c": t3.cycles["b"]})
    assert homology.logical_basis(K) == canonical


# -- one elimination per boundary matrix ------------------------------------------


def ref_cycle_space(K, n):
    """Reference: the four helpers chain_spaces replaced, one elimination each."""
    if n == 0:
        return [1 << v for v in range(K.n_cells(0))]
    return homology.boundary_matrix(K, n).nullspace()


def ref_boundary_space(K, n):
    if n >= K.dims:
        return []
    return row_reduce(homology.boundary_matrix(K, n + 1).transpose().rows)[0]


def ref_cocycle_space(K, n):
    if n == K.dims:
        return [1 << s for s in range(K.n_cells(n))]
    return homology.boundary_matrix(K, n + 1).transpose().nullspace()


def ref_coboundary_space(K, n):
    if n == 0:
        return []
    return row_reduce(homology.boundary_matrix(K, n).rows)[0]


def _spaces_complexes():
    from test_local_check import t3_cover

    t3 = build_torus3()
    base = build_sigma_g_rotsym(2)
    return [t3, barycentric_subdivide(t3).complex, t3_cover(2),
            product_with_circle(build_sigma_g(2), 2),
            mapping_torus(base, rotation_automorphism(base, 2, 1), 1),
            build_sigma_g(2), tetrahedron_boundary(), build_point()]


def test_chain_spaces_match_the_four_reference_helpers():
    # the reference chain spaces agree with the four helpers, and the picks of
    # homology.representatives are the vectors extend_basis picks from them
    for K in _spaces_complexes():
        for n in range(-1, K.dims + 2):
            refs = (ref_cycle_space(K, n), ref_boundary_space(K, n),
                    ref_cocycle_space(K, n), ref_coboundary_space(K, n))
            assert chain_spaces(K, n) == refs, (K.counts, n)
            cycles, boundaries, cocycles, coboundaries = refs
            assert homology.representatives(K, n) == (
                extend_basis(coboundaries, cocycles), extend_basis(boundaries, cycles)), (K.counts, n)


def test_betti_all_and_default_duals_match_per_call_forms(monkeypatch):
    for K in _spaces_complexes():
        assert homology.betti_all(K) == tuple(homology.betti(K, n) for n in range(K.dims + 1))
        if K.dims < 2 or not homology.betti(K, K.dims):
            continue  # no fundamental class: no Poincare duals
        q = K.dims - 1
        cycles, cocycles = homology.canonical_basis(K, q)
        _, boundaries, _, _ = chain_spaces(K, q)
        zs = cycles + boundaries[:3] + [0]
        assert homology.poincare_duals(K, zs) == _duals_against(monkeypatch, K, zs, cocycles)


def test_named_basis_of_a_sphere_is_empty():
    # b_1 = 0 and no named 1-cycle: the empty basis, not None
    S = tetrahedron_boundary()
    assert homology.logical_basis(S) == ([], [], [])
    assert named_dual_cocycles(S) == {}


def _count_eliminations(monkeypatch):
    """Count gf2.echelon calls (under every name a tricode module bound it
    to) and BitMatrix.rank calls.  Left out are echelons of no rows (the
    empty start of extend_basis) and those reached from invert, at any
    depth, which only ever sees the k x k pairing of dual_basis: neither
    eliminates a boundary matrix."""
    counts = {"echelon": 0, "rank": 0}
    original, original_rank = gf2.echelon, gf2.BitMatrix.rank

    def from_invert():
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_name != "invert":
            frame = frame.f_back
        return frame is not None

    def counted(rows):
        rows = list(rows)
        if rows and not from_invert():
            counts["echelon"] += 1
        return original(rows)

    def counted_rank(self):
        counts["rank"] += 1
        return original_rank(self)

    for name, mod in list(sys.modules.items()):
        if name.startswith("tricode") and getattr(mod, "echelon", None) is original:
            monkeypatch.setattr(mod, "echelon", counted)
    monkeypatch.setattr(gf2.BitMatrix, "rank", counted_rank)
    return counts


def test_one_elimination_per_boundary_matrix(monkeypatch):
    from test_local_check import t3_cover
    from tricode.codes import distance, systole_bfs, toric_code
    from tricode.hypergraph import form_from_cup

    cover = t3_cover(3)
    sigma4 = product_with_circle(build_sigma_g(4), 2)
    counts = _count_eliminations(monkeypatch)

    def spent(fn, *args):
        counts.update(echelon=0, rank=0)
        fn(*args)
        return counts["echelon"], counts["rank"]

    # rank is one echelon of its rows
    assert spent(homology.betti_all, cover) == (3, 3)
    assert spent(form_from_cup, cover) == (2, 0)
    assert spent(toric_code, cover, 3) == (2, 0)
    assert spent(systole_bfs, cover) == (2, 0)
    code = toric_code(cover, 3)
    assert spent(lambda: distance(code, sector="z")) == (0, 0)
    # plus the H^2 representatives (del_2, del_3^T) and the Poincare-dual solve
    assert spent(form_from_cup, sigma4) == (5, 0)
    assert spent(toric_code, sigma4, 3) == (5, 0)


def test_a_built_code_is_checked_without_an_elimination(monkeypatch):
    # building eliminates hx and hz once each (for the toric code, those of
    # one copy); the check then trusts the builder's facts and runs none.  A
    # loaded copy has no facts: its check eliminates hz once, in
    # kernel_completion.
    from test_local_check import loaded, t3_cover
    from tricode.codes import color_code, toric_code
    from tricode.gates import ccz_circuit, check_logical_gate, extract_logical_action, transversal_t

    cover2, cover3 = t3_cover(2), t3_cover(3)
    counts = _count_eliminations(monkeypatch)

    def spent(fn, *args):
        counts.update(echelon=0, rank=0)
        fn(*args)
        return counts["echelon"], counts["rank"]

    assert spent(toric_code, cover3, 3) == (2, 0)
    assert spent(color_code, cover2) == (2, 0)
    toric, color = toric_code(cover3, 3), color_code(cover2)
    assert (toric.n, color.n) == (567, 1152)
    for code, circ in ((toric, ccz_circuit(cover3)), (color, transversal_t(color))):
        chk = check_logical_gate(circ, code)
        assert chk.passed
        assert spent(check_logical_gate, circ, code) == (0, 0)
        assert spent(extract_logical_action, circ, code, chk) == (0, 0)
        assert spent(extract_logical_action, circ, code) == (0, 0)
        back = loaded(code)
        assert spent(check_logical_gate, circ, back) == (1, 0)
        assert spent(extract_logical_action, circ, back) == (1, 0)
