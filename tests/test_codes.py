import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from tricode import homology
from tricode.codes import (
    CssCode,
    color_code,
    distance,
    systole_bfs,
    toric_code,
)
from tricode.complexes import (
    barycentric_subdivide,
    build_sigma_g,
    build_sigma_g_rotsym,
    mapping_torus,
    product_with_circle,
    rotation_automorphism,
)
from tricode.gates import ccz_circuit, check_logical_gate, extract_logical_action
from tricode.gf2 import BitMatrix, dot, extend_basis, vec_from_support
from tricode.hypergraph import base_hypergraph, form_from_cup, lift_full, magic_state_complexity

from conftest import chain_spaces, check_logicals, tetrahedron_boundary
from test_kernels import COLOR_COMPLEXES, SUBDIVIDED  # T3, sd(T3), the T3 L=2 cover, ...


def brute_force_min_logical(code: CssCode, sector: str) -> int | None:
    """Independent oracle: scan all 2^n supports."""
    stab, pair = (code.hz, code.logical_x) if sector == "z" else (code.hx, code.logical_z)
    commute = code.hx if sector == "z" else code.hz
    best = None
    for v in range(1, 1 << code.n):
        if commute.matvec(v) != 0:
            continue
        if not any(dot(v, p) for p in pair):
            continue
        w = v.bit_count()
        if best is None or w < best:
            best = w
    return best


def test_toric_t3_one_copy(t3):
    code = toric_code(t3, 1)
    assert (code.n, code.k) == (7, 3)
    assert check_logicals(code) == []
    assert code.k == homology.betti(t3, 1)


def test_toric_t3_three_copies(t3):
    code = toric_code(t3, 3)
    assert (code.n, code.k) == (21, 9)
    assert check_logicals(code) == []


def test_toric_product_copies(s2xs1):
    code = toric_code(s2xs1, 3)
    assert code.k == 15  # 3 (2g + 1) with g = 2
    assert check_logicals(code) == []


def test_toric_labels_are_dual_2cycles(t3):
    labels = toric_code(t3, 1).logical_labels()
    assert labels == [("bxc", 1), ("axc", 1), ("axb", 1)]


def test_toric_surface_code(sigma2):
    code = toric_code(sigma2, 1)
    assert code.k == 4
    assert check_logicals(code) == []


DEGENERATE_PAIRING = """
import pytest
from tricode import codes, complexes, gf2, homology

K = complexes.build_torus3()
gf2.invert = lambda rows, n: None  # every pairing now reads as singular
with pytest.raises(RuntimeError, match="homology/cohomology pairing is degenerate"):
    homology.canonical_basis(K, 1)
with pytest.raises(RuntimeError, match="logical pairing is degenerate"):
    codes.color_code(K)
print("ok")
"""


def test_degenerate_pairing_raises_under_O():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run([sys.executable, "-O", "-c", DEGENERATE_PAIRING],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_sigma8_circle_2_layers_rung():
    t0 = time.perf_counter()
    K = product_with_circle(build_sigma_g(8), 2)
    form = form_from_cup(K)
    kappa = magic_state_complexity(lift_full(base_hypergraph(form)))
    code = toric_code(K, 3)
    circ = ccz_circuit(K)
    chk = check_logical_gate(circ, code)
    act = extract_logical_action(circ, code, chk)
    dz, _ = systole_bfs(K)
    elapsed = time.perf_counter() - t0
    assert homology.betti_all(K) == (1, 17, 17, 1)
    assert len(form.known_unit_triples()) == 8
    names = [f"{x}{i}xc" for i in range(1, 9) for x in "ba"] + ["fiber"]
    assert sorted(form.labels) == sorted(names)
    assert [lab for lab, cpy in code.logical_labels() if cpy == 1] == form.labels
    assert kappa == 48
    assert (code.n, code.k) == (546, 51)
    assert chk.status == "PASS"
    gates = act.gate_list()
    assert len(gates) == 48 and all(kind == "CCZ" for kind, _ in gates)
    assert dz == 1  # a loop edge of the one-vertex surface
    assert elapsed < 10.0, f"Sigma_8 x S^1 (2 layers) rung took {elapsed:.1f}s"


def test_color_code_t3(t3):
    code = color_code(t3)
    assert (code.n, code.k) == (144, 9)
    assert check_logicals(code) == []
    signs = code.meta["signs"]
    assert signs.count(1) == signs.count(-1) == 72


def _rotation_torus(g: int):
    base = build_sigma_g_rotsym(g)
    return mapping_torus(base, rotation_automorphism(base, g, 1), 1)


COLOR_CORPUS = {
    **{name: SUBDIVIDED[name] for name in COLOR_COMPLEXES},
    **{f"Sigma_{g} x S1, {layers} layers": lambda g=g, layers=layers: product_with_circle(
        build_sigma_g(g), layers) for g in (1, 2, 3) for layers in (1, 2, 3)},
    **{f"sigma-rot:{g} rotation torus": lambda g=g: _rotation_torus(g) for g in (2, 3)},
    "sd(Sigma_2 x S1)": lambda: barycentric_subdivide(
        product_with_circle(build_sigma_g(2), 1)).complex,
}


@pytest.mark.parametrize("name", list(COLOR_CORPUS))
def test_color_code_is_css_on_every_complex(name):
    # color_code checks no CSS condition: the orientation check implies it
    assert check_logicals(color_code(COLOR_CORPUS[name]())) == []


def test_color_code_refuses_a_complex_with_boundary(t3):
    K = dataclasses.replace(t3, face=t3.face[:3] + [t3.face[3][1:]])  # one tetrahedron gone
    with pytest.raises(ValueError, match="complex is not orientable: no flag bipartition"):
        color_code(K)


def test_color_equals_three_toric(t3, s2xs1):
    for K in (t3, s2xs1):
        assert color_code(K).k == 3 * toric_code(K, 1).k


def test_color_stabilizer_weights_bounded(t3):
    code = color_code(t3)
    # weights are the flag-incidence counts of the subdivision
    sub = barycentric_subdivide(t3)
    sd = sub.complex
    D = sd.dims
    incid = [0] * sd.n_cells(0)
    for s in range(sd.n_cells(D)):
        for i in range(D + 1):
            incid[sd.iterated_face(D, s, (i,))[1]] += 1
    assert max(r.bit_count() for r in code.hx.rows) <= max(incid)


def test_distance_t3_exact(t3):
    code = toric_code(t3, 1)
    res = distance(code)
    assert res.exact
    assert res.dz == 1 == brute_force_min_logical(code, "z")
    assert res.dx == brute_force_min_logical(code, "x")
    assert res.certificate_z.bit_count() == res.dz
    assert code.hx.matvec(res.certificate_z) == 0


def test_distance_zero_k():
    S = tetrahedron_boundary()
    code = toric_code(S, 1)
    assert code.k == 0
    res = distance(code)
    assert res.dx is None and res.dz is None
    assert "undefined" in res.flagged()


def test_distance_subdivision_monotone(t3):
    base = distance(toric_code(t3, 1), sector="z")
    sub = barycentric_subdivide(t3)
    fine = distance(toric_code(sub.complex, 1), sector="z", budget=1 << 22)
    assert fine.exact and base.exact
    assert fine.dz > base.dz


def test_distance_subdivision_monotone_surface(sigma2):
    base = distance(toric_code(sigma2, 1), sector="z")
    sub = barycentric_subdivide(sigma2)
    fine = distance(toric_code(sub.complex, 1), sector="z", budget=1 << 22)
    assert fine.exact and base.exact
    assert fine.dz >= base.dz


def test_distance_invariant_under_stabilizer_basis_change(t3):
    code = toric_code(t3, 1)
    ref = distance(code)
    rng = random.Random(17)
    for _ in range(5):
        rows = list(code.hz.rows)
        mixed = []
        for i in range(len(rows)):
            v = rows[i]
            for j in range(len(rows)):
                if i != j and rng.random() < 0.3:
                    v ^= rows[j]
            mixed.append(v)
        # keep the span: re-add originals at random
        m2 = CssCode(
            code.n,
            code.hx,
            BitMatrix(len(mixed), code.n, mixed),
            code.logical_x,
            code.logical_z,
            code.meta,
        )
        if BitMatrix(len(mixed), code.n, mixed).rank() != code.hz.rank():
            continue
        res = distance(m2)
        assert (res.dx, res.dz) == (ref.dx, ref.dz)


def test_distance_budget_flag(t3):
    code = toric_code(barycentric_subdivide(t3).complex, 1)
    res = distance(code, sector="x", budget=10)
    assert not res.exact
    assert "budget" in res.note


def test_systole_bfs_upper_bound(t3):
    w, cert = systole_bfs(t3)
    assert w == 1  # single-edge loops are nontrivial on the one-vertex complex
    sub = barycentric_subdivide(t3)
    w2, cert2 = systole_bfs(sub.complex)
    assert w2 == 2
    assert cert2.bit_count() == 2
    # certificate is a homologically nontrivial cycle
    assert homology.boundary_matrix(sub.complex, 1).matvec(cert2) == 0


def class_tracked_systole(K):
    """Reference: BFS over (vertex, homology class so far) states, V * 2^k of
    them; the class of an edge is its evaluation against the H^1 basis."""
    from collections import deque

    cocycles = homology.canonical_basis(K, 1)[1]
    k = len(cocycles)
    V = K.n_cells(0)
    adj = [[] for _ in range(V)]
    for e, (v1, v0) in enumerate(K.face[1]):
        cls = vec_from_support(j for j, c in enumerate(cocycles) if (c >> e) & 1)
        adj[v0].append((v1, cls))
        adj[v1].append((v0, cls))
    best = None
    for start in range(V):
        dist = {(start, 0): 0}
        q = deque([(start, 0)])
        while q:
            v, cls = q.popleft()
            if best is not None and dist[(v, cls)] >= best:
                continue
            for w, ecls in adj[v]:
                if (w, cls ^ ecls) not in dist:
                    dist[(w, cls ^ ecls)] = dist[(v, cls)] + 1
                    q.append((w, cls ^ ecls))
        for cls in range(1, 1 << k):
            if (start, cls) in dist and (best is None or dist[(start, cls)] < best):
                best = dist[(start, cls)]
    return best


def test_systole_matches_class_tracked_reference(t3):
    from test_local_check import t3_cover

    base = build_sigma_g_rotsym(2)
    family = [t3, barycentric_subdivide(t3).complex, t3_cover(2), t3_cover(3),
              mapping_torus(base, rotation_automorphism(base, 2, 1), 1)]
    family += [product_with_circle(build_sigma_g(g), layers) for g in (1, 2, 4) for layers in (1, 2)]
    for K in family:
        length, cert = systole_bfs(K)
        assert length == class_tracked_systole(K), K.counts
        # the certificate is a cycle of that weight outside the boundaries
        assert cert.bit_count() == length
        assert homology.boundary_matrix(K, 1).matvec(cert) == 0
        _, boundaries, _, _ = chain_spaces(K, 1)
        assert extend_basis(boundaries, [cert])
    with pytest.raises(ValueError, match="no nontrivial cycles"):
        systole_bfs(tetrahedron_boundary())


def test_systole_bfs_through_code_api(t3):
    # the code's own check graph gives the edge systole of the complex as an
    # exact d_z, with no complex passed
    for K in (t3, barycentric_subdivide(t3).complex, product_with_circle(build_sigma_g(2), 1)):
        res = distance(toric_code(K, 1), budget=None, sector="z")
        assert (res.dz, res.flagged()) == (systole_bfs(K)[0], "exact")


def test_systole_bfs_rejects_codes_it_does_not_bound(t3):
    # the color code's X checks put each flag in four vertices; d_z = 2 comes
    # from enumeration, and the graph-only method refuses
    cc = color_code(t3)
    assert distance(cc, sector="z").dz == 2
    with pytest.raises(ValueError, match="bfs finds d_z only when every qubit lies in at most "
                                         "two X checks; qubit 0 lies in 4 of them"):
        distance(cc, budget=None, sector="z")
    # a 3D toric code's d_x is a membrane: an edge lies in several faces
    code = toric_code(t3, 3)
    with pytest.raises(ValueError, match="bfs finds d_x only .* two Z checks"):
        distance(code, budget=None)
    assert distance(code, budget=None, sector="z").dz == 1


def _random_checks(rng, n, weights):
    """Random check rows on n qubits, qubit q in rng.choice(weights) of them."""
    m = rng.randint(max(weights), max(max(weights), n))
    rows = [0] * m
    for q in range(n):
        for i in rng.sample(range(m), rng.choice(weights)):
            rows[i] |= 1 << q
    return rows


def _min_weight_by_enumeration(rows, pairs, n):
    for w in range(1, n + 1):
        for comb in itertools.combinations(range(n), w):
            v = vec_from_support(comb)
            if not any(dot(v, r) for r in rows) and any(dot(v, p) for p in pairs):
                return w
    return None


def _graph_route_calls(monkeypatch):
    from tricode import codes

    calls = []
    kernel = codes._shortest_nontrivial_cycle

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(codes, "_shortest_nontrivial_cycle", counted)
    return calls


def test_graph_route_equals_enumeration_on_random_graph_like_codes(monkeypatch):
    # a qubit in 0, 1 or 2 checks: a loop at the hub, an edge to the hub, an
    # edge between two checks; the logicals are arbitrary sparse masks, so
    # d runs from 1 to 6 and about a third of the codes have no logical at all
    calls = _graph_route_calls(monkeypatch)
    rng = random.Random(2005)
    trials = 1500
    for _ in range(trials):
        n = rng.randint(1, 12)
        rows = _random_checks(rng, n, (0, 1) + (2,) * 6)
        pairs = [sum(1 << q for q in range(n) if rng.random() < 0.2) for _ in range(rng.randint(1, 3))]
        code = CssCode(n, BitMatrix(len(rows), n, rows), BitMatrix(0, n), pairs, [0] * len(pairs))
        res = distance(code, sector="z")
        want = _min_weight_by_enumeration(rows, pairs, n)
        assert res.exact and res.dz == want, (n, rows, pairs)
        assert distance(code, budget=None, sector="z").dz == want
        if want is not None:
            cert = res.certificate_z
            assert cert.bit_count() == want
            assert not any(dot(cert, r) for r in rows)
            assert any(dot(cert, p) for p in pairs)
    assert len(calls) == 2 * trials


def test_codes_that_are_not_graphs_go_to_enumeration(t3, monkeypatch):
    calls = _graph_route_calls(monkeypatch)
    rng = random.Random(1999)
    for _ in range(200):
        n = rng.randint(3, 9)
        rows = _random_checks(rng, n, (1, 2, 3))
        if max(sum(r >> q & 1 for r in rows) for q in range(n)) < 3:
            continue
        pairs = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))]
        code = CssCode(n, BitMatrix(len(rows), n, rows), BitMatrix(0, n), pairs, [0] * len(pairs))
        res = distance(code, sector="z")
        assert res.exact and res.dz == _min_weight_by_enumeration(rows, pairs, n)
        with pytest.raises(ValueError, match="bfs finds d_z only"):
            distance(code, budget=None, sector="z")
    assert distance(color_code(t3), sector="z").dz == 2
    assert calls == []


def test_distance_exact_on_t3_covers(t3):
    from test_local_check import t3_cover

    for L in range(1, 7):
        code = toric_code(t3 if L == 1 else t3_cover(L), 3)
        res = distance(code, sector="z")
        assert (res.dz, res.exact) == (L, True)
        cert = res.certificate_z
        assert cert.bit_count() == L and code.hx.matvec(cert) == 0
        assert any(dot(cert, lx) for lx in code.logical_x)


def test_surface_toric_code_distances_are_exact(sigma2):
    # d_x comes from the face graph: each edge of a surface bounds two faces
    code = toric_code(sigma2, 1)
    for budget in (1 << 26, None):  # None: the check graph only
        res = distance(code, budget)
        assert (res.dx, res.dz, res.exact) == (2, 1, True)
        assert res.certificate_x.bit_count() == 2 and code.hz.matvec(res.certificate_x) == 0
        assert any(dot(res.certificate_x, lz) for lz in code.logical_z)


def test_code_json_roundtrip(t3):
    from tricode import serialize

    code = toric_code(t3, 3)
    back = serialize.code_from_json(json.loads(serialize.dumps(serialize.code_to_json(code))))
    assert back.n == code.n and back.k == code.k
    assert back.hx.rows == code.hx.rows and back.hz.rows == code.hz.rows
    assert back.logical_x == code.logical_x
    assert back.logical_labels() == code.logical_labels()
    assert check_logicals(back) == []


def dense_code_json(code: CssCode) -> dict:
    """A code in the older dense layout (format 1, no "format" key): hx/hz
    rows of n 0/1 entries; everything else as in format 2."""
    from tricode import serialize

    data = json.loads(serialize.dumps(serialize.code_to_json(code)))
    del data["format"]
    for name in ("hx", "hz"):
        data[name] = [[(r >> j) & 1 for j in range(code.n)] for r in getattr(code, name).rows]
    return data


def test_code_loader_rejects_bad_shapes(t3):
    from tricode import serialize

    code = toric_code(t3, 1)
    dense = dense_code_json(code)
    n = dense["n"]
    dense_cases = [
        ({"hx": [row[:-1] for row in dense["hx"]]}, "hx has a row whose length is not n = 7"),
        ({"hz": dense["hz"][:1] + [dense["hz"][1] + [0]]}, "hz has a row whose length"),
        ({"logical_z": dense["logical_z"][:-1]}, "differ in length"),
        ({"logical_x": [[0, n]] + dense["logical_x"][1:]},
         "logical_x row 0 is not an increasing list of qubits in 0..6"),
        ({"logical_z": dense["logical_z"][:2] + [[-1]]}, "logical_z row 2 is not an increasing"),
    ]
    good = json.loads(serialize.dumps(serialize.code_to_json(code)))
    assert good["format"] == 2 and good["hz"][0] == [0, 1, 3]
    sparse_cases = [
        ({"hz": good["hz"][:1] + [good["hz"][1] + [n]]}, "hz row 1 is not an increasing list"),
        ({"hx": [[-1]]}, "hx row 0 is not an increasing list of qubits in 0..6"),
        ({"hz": [[0, "1", 3]]}, "hz row 0 is not an increasing"),
        ({"hz": [[0, 1.0, 3]]}, "hz row 0 is not an increasing"),
        ({"hz": [[0, 3, 1]]}, "hz row 0 is not an increasing"),
        ({"hz": [[0, 1, 1, 3]]}, "hz row 0 is not an increasing"),
        ({"hx": [3]}, "hx row 0 is not a list"),
        ({"logical_z": good["logical_z"][:-1]}, "differ in length"),
        ({"logical_x": [[0, n]] + good["logical_x"][1:]}, "logical_x row 0 is not an increasing"),
        ({"logical_x": [[0] + good["logical_x"][0]] + good["logical_x"][1:]},
         "logical_x row 0 is not an increasing"),
        ({"logical_z": good["logical_z"][:1] + [[0.5]] + good["logical_z"][2:]},
         r"logical_z row 1 is not an increasing list of qubits in 0..6: \[0.5\]"),
        ({"format": 3}, "unknown code format 3"),
        ({"format": "2"}, "unknown code format '2'"),
        ({"format": True}, "unknown code format True"),
    ]
    for base, cases in ((dense, dense_cases), (good, sparse_cases)):
        for change, message in cases:
            with pytest.raises(ValueError, match=message):
                serialize.code_from_json({**base, **change})
    assert serialize.code_from_json(dense).k == serialize.code_from_json(good).k == 3


def test_code_is_checked_at_construction(t3):
    # hand-made codes and dataclasses.replace copies are checked as loaded
    # ones are: the checks live in CssCode, not in the loader
    code = toric_code(t3, 3)
    n, k = code.n, code.k
    wide = BitMatrix(code.hx.nrows, n + 1, code.hx.rows)
    cases = [
        (dict(hx=wide), f"hx and hz have {n + 1} and {n} columns, not n = {n}"),
        (dict(n=n - 1), f"hx and hz have {n} and {n} columns, not n = {n - 1}"),
        (dict(logical_z=code.logical_z[:-1] + [1 << n]), f"a check row or logical has a qubit "
                                                          f"at or above n = {n}"),
        (dict(logical_z=code.logical_z[:-1]), "logical_x and logical_z differ in length"),
        (dict(meta={"labels": code.logical_labels()[1:]}), f"'labels' must be {k} distinct"),
        (dict(meta={"labels": [("a", 1)] * k}), f"'labels' must be {k} distinct"),
        (dict(meta={"labels": [[i] for i in range(k)]}), f"'labels' must be {k} distinct"),
        (dict(meta={"signs": [1] * (n - 1)}), f"'signs' has {n - 1} entries for {n} qubits"),
        (dict(meta={"signs": [1] * (n - 1) + [0]}), f"'signs' entry {n - 1} is 0, not"),
    ]
    for change, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(code, **change)
    assert dataclasses.replace(code, meta={"labels": list(range(k)), "signs": [-1] * n}).k == k
    assert CssCode(n, code.hx, code.hz, code.logical_x, code.logical_z).logical_labels() == list(
        range(k))


def test_code_json_sparse_decodes_as_dense(t3):
    from tricode import serialize

    base = build_sigma_g_rotsym(2)
    torus = mapping_torus(base, rotation_automorphism(base, 2, 1), 1)
    for code in (toric_code(t3, 3), color_code(t3), color_code(torus)):
        text = serialize.dumps(serialize.code_to_json(code))
        sparse = serialize.code_from_json(json.loads(text))
        dense = serialize.code_from_json(json.loads(serialize.dumps(dense_code_json(code))))
        for back in (sparse, dense):
            assert (back.n, back.k) == (code.n, code.k)
            assert (back.hx.nrows, back.hx.ncols) == (code.hx.nrows, code.n)
            assert (back.hz.nrows, back.hz.ncols) == (code.hz.nrows, code.n)
        assert sparse.hx.rows == dense.hx.rows == code.hx.rows
        assert sparse.hz.rows == dense.hz.rows == code.hz.rows
        assert sparse.logical_x == dense.logical_x == code.logical_x
        assert sparse.logical_z == dense.logical_z == code.logical_z
        assert sparse.logical_labels() == dense.logical_labels() == code.logical_labels()
        assert sparse.meta == dense.meta
        assert sparse.meta.get("signs") == code.meta.get("signs")
