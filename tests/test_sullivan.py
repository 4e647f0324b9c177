import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tricode.hypergraph import base_hypergraph, degree_report
from tricode.mcg import is_symplectic
from tricode.snf import IntMatrix, identity, matmul
from tricode.sullivan import ThreeForm, genus13_tree_form, roundtrip_check, synthesize


# -- the product route: reference oracle for synthesize's closed form -----------


def sigma_block(i: int, j: int, k: int, m: int) -> IntMatrix:
    """The gluing generator on handles (i, j, k), extended by identity:
    [[I, B], [0, I]] with B = [[0,1,1],[1,0,1],[1,1,0]] on (i, j, k)."""
    if not (1 <= i < j < k <= m):
        raise ValueError("need 1 <= i < j < k <= m")
    M = identity(2 * m)
    trio = (i - 1, j - 1, k - 1)
    for r in trio:
        for c in trio:
            if r != c:
                M[r][m + c] = 1
    if not is_symplectic(M, m):
        raise ValueError("no symplectic completion")
    return M


def matrix_power(M: IntMatrix, a: int, m: int) -> IntMatrix:
    if a < 0:
        # unit upper-triangular: inverse negates the off-diagonal block
        inv = [row[:] for row in M]
        for r in range(m):
            for c in range(m, 2 * m):
                inv[r][c] = -inv[r][c]
        return matrix_power(inv, -a, m)
    out = identity(2 * m)
    for _ in range(a):
        out = matmul(out, M)
    return out


def product_tau(mu: ThreeForm) -> IntMatrix:
    """tau as the ordered product of sigma_{ijk}^{a_ijk}, one matrix product
    per unit of each |a_ijk|."""
    tau = identity(2 * mu.m)
    for (i, j, k), a in sorted(mu.coeffs.items()):
        tau = matmul(tau, matrix_power(sigma_block(i, j, k, mu.m), a, mu.m))
    return tau


def test_sigma_block_matches_stated_rows():
    s = sigma_block(1, 2, 3, 3)
    assert s[0] == [1, 0, 0, 0, 1, 1]
    assert s[1] == [0, 1, 0, 1, 0, 1]
    assert s[2] == [0, 0, 1, 1, 1, 0]
    # starred lower-left block is forced to zero
    for r in range(3, 6):
        assert s[r][:3] == [0, 0, 0]


def test_sigma_block_symplectic_and_fixes_kernel():
    for m in (3, 5, 8):
        s = sigma_block(1, 2, m, m)
        assert is_symplectic(s, m)
        for c in range(m):
            col = [s[r][c] for r in range(2 * m)]
            assert col == [1 if r == c else 0 for r in range(2 * m)]


def test_sigma_block_bad_indices():
    with pytest.raises(ValueError):
        sigma_block(2, 1, 3, 3)
    with pytest.raises(ValueError):
        sigma_block(1, 2, 5, 4)


def test_matrix_power_inverse():
    s = sigma_block(1, 2, 3, 4)
    p = matmul(matrix_power(s, 3, 4), matrix_power(s, -3, 4))
    assert p == identity(8)


def test_closed_form_tau_matches_product_route():
    rng = random.Random(26)
    forms = [genus13_tree_form(), ThreeForm(4, {(1, 2, 3): -1, (2, 3, 4): 1})]
    for _ in range(40):
        m = rng.randint(3, 7)
        triples = list(itertools.combinations(range(1, m + 1), 3))
        forms.append(ThreeForm(m, {t: rng.randint(-5, 5)
                                   for t in rng.sample(triples, rng.randint(1, len(triples)))}))
    assert sum(v < 0 for mu in forms for v in mu.coeffs.values()) >= 20
    for mu in forms:
        assert synthesize(mu).tau == product_tau(mu), mu


def test_synthesize_t3():
    mu = ThreeForm(3, {(1, 2, 3): 1})
    res = synthesize(mu)
    assert res.fixes_kernel_lattice() and res.m == 3  # the invariant a-lattice has rank m
    assert res.predicted_form.known_unit_triples() == [(0, 1, 2)]
    assert roundtrip_check(mu).passed


def test_synthesize_shared_pair():
    mu = ThreeForm(4, {(1, 2, 3): 1, (2, 3, 4): 1})
    res = synthesize(mu)
    h = base_hypergraph(res.predicted_form)
    assert len(h.hyperedges) == 2
    shared = set(h.hyperedges[0]) & set(h.hyperedges[1])
    assert shared == {"G2", "G3"}
    assert roundtrip_check(mu).passed


def test_two_prong_tree():
    mu = ThreeForm(5, {(1, 2, 3): 1, (1, 4, 5): 1})
    res = synthesize(mu)
    rep = degree_report(base_hypergraph(res.predicted_form))
    assert rep.max_degree == 2
    assert rep.degrees["G1"] == 2
    assert roundtrip_check(mu).passed


def test_form_json_roundtrip():
    from tricode import serialize

    mu = genus13_tree_form()
    coeffs = {f"{i},{j},{k}": v for (i, j, k), v in mu.coeffs.items()}
    data = json.loads(serialize.dumps({"m": mu.m, "coeffs": coeffs}))
    assert len(data["coeffs"]) == len(mu.coeffs) > 0
    back = serialize.form_from_json(data)
    assert (back.m, back.coeffs) == (mu.m, mu.coeffs)


def test_genus13_six_factor_tree():
    mu = genus13_tree_form()
    rep = roundtrip_check(mu)
    assert rep.passed, rep.failures
    h = base_hypergraph(synthesize(mu).predicted_form)
    assert len(h.hyperedges) == 6
    dr = degree_report(h)
    assert dr.max_degree == 2
    assert not dr.star_like
    degree2 = {v for v, d in dr.degrees.items() if d == 2}
    assert degree2 == {"G1", "G2", "G3", "G4", "G5", "G12"}


def test_zero_form_trivial_tau():
    mu = ThreeForm(4, {})
    res = synthesize(mu)
    assert res.tau == identity(8)
    assert roundtrip_check(mu).passed


def test_even_coefficients_vanish_mod2():
    mu = ThreeForm(3, {(1, 2, 3): 2})
    res = synthesize(mu)
    assert res.predicted_form.known_unit_triples() == []
    assert roundtrip_check(mu).passed


def rand_form(rng, m):
    triples = list(itertools.combinations(range(1, m + 1), 3))
    coeffs = {}
    for t in rng.sample(triples, min(rng.randint(1, 5), len(triples))):
        coeffs[t] = rng.randint(-4, 4)
    return ThreeForm(m, coeffs)


def test_roundtrip_random_forms():
    rng = random.Random(2024)
    count = 0
    for _ in range(100):
        m = rng.randint(3, 8)
        mu = rand_form(rng, m)
        assert roundtrip_check(mu).passed
        count += 1
    assert count == 100


def test_multilinearity_mod2():
    rng = random.Random(55)
    for _ in range(30):
        m = rng.randint(3, 7)
        f1, f2 = rand_form(rng, m), rand_form(rng, m)
        total = {t: f1.coeffs.get(t, 0) + f2.coeffs.get(t, 0) for t in {**f1.coeffs, **f2.coeffs}}
        combined = synthesize(ThreeForm(m, total)).predicted_form
        u1 = set(synthesize(f1).predicted_form.known_unit_triples())
        u2 = set(synthesize(f2).predicted_form.known_unit_triples())
        assert set(combined.known_unit_triples()) == u1 ^ u2


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(1, 2), st.integers(3, 4), st.integers(5, 6)),
    st.integers(-3, 3), max_size=4))
def test_roundtrip_hypothesis(coeffs):
    mu = ThreeForm(6, dict(coeffs))
    assert roundtrip_check(mu).passed


def test_form_index_validation():
    with pytest.raises(ValueError):
        ThreeForm(3, {(1, 3, 2): 1})
    with pytest.raises(ValueError):
        ThreeForm(3, {(1, 2, 4): 1})
