import dataclasses
import itertools
import json
import random

import pytest

from tricode import homology
from tricode.complexes import (barycentric_subdivide, build_sigma_g, build_sigma_g_rotsym,
                               build_torus3, mapping_torus, product_with_circle,
                               rotation_automorphism)
from tricode.cup import Cochain, triple_cup_integral
from tricode.hypergraph import (
    Hypergraph,
    base_hypergraph,
    cz_interaction_graph,
    degree_report,
    form_from_cup,
    lift_full,
    magic_state_complexity,
    to_dot,
)
from tricode.mcg import UNKNOWN, TripleForm


def test_t3_base_hypergraph(t3):
    form = form_from_cup(t3)
    h = base_hypergraph(form)
    assert len(h.vertices) == 3
    assert len(h.hyperedges) == 1


@pytest.mark.parametrize("g", [1, 2, 3])
def test_product_star_hypergraph(g):
    P = product_with_circle(build_sigma_g(g), 1)
    form = form_from_cup(P)
    h = base_hypergraph(form)
    assert len(h.vertices) == 2 * g + 1
    assert len(h.hyperedges) == g
    assert all("fiber" in e for e in h.hyperedges)
    rep = degree_report(h)
    assert rep.degrees["fiber"] == g
    assert all(d == 1 for v, d in rep.degrees.items() if v != "fiber")


def test_zero_form_empty_hypergraph():
    form = TripleForm(["x", "y", "z"])
    h = base_hypergraph(form)
    assert h.hyperedges == []
    full = lift_full(h)
    assert magic_state_complexity(full) == 0


def test_lift_full_counts(t3):
    h = base_hypergraph(form_from_cup(t3))
    full = lift_full(h)
    assert len(full.vertices) == 9
    assert len(full.hyperedges) == 6
    assert magic_state_complexity(full) == 6


@pytest.mark.parametrize("g,kappa", [(1, 6), (2, 12), (3, 18)])
def test_magic_state_complexity(g, kappa):
    P = product_with_circle(build_sigma_g(g), 1)
    full = lift_full(base_hypergraph(form_from_cup(P)))
    assert len(full.hyperedges) == 6 * len(base_hypergraph(form_from_cup(P)).hyperedges)
    assert magic_state_complexity(full) == kappa


def test_base_hypergraph_refuses_unknown():
    form = TripleForm(["p", "q", "r", "s"])
    form.coefficients[frozenset({0, 1, 3})] = 1
    form.coefficients[frozenset({0, 1, 2})] = UNKNOWN
    with pytest.raises(ValueError, match="^1 UNKNOWN-ALGEBRAIC coefficients; cannot build"):
        base_hypergraph(form)


def test_cz_interaction_graph(s2xs1):
    form = form_from_cup(s2xs1)
    g1 = cz_interaction_graph(form, "a1xc", (1, 2))
    assert len(g1.edges) == 2  # always a pair of same-colour edges
    assert {frozenset(e) for e in g1.edges} == {
        frozenset((("b1xc", 1), ("fiber", 2))),
        frozenset((("b1xc", 2), ("fiber", 1))),
    }
    gf = cz_interaction_graph(form, "fiber", (1, 2))
    assert len(gf.edges) == 4  # the collective product over the handles


def test_cz_graph_matches_full_hypergraph(s2xs1):
    form = form_from_cup(s2xs1)
    full = lift_full(base_hypergraph(form))
    gph = cz_interaction_graph(form, "a1xc", (1, 2))
    # each CZ edge appears inside a full hyperedge containing (a1xc, remaining copy)
    for (u, v) in gph.edges:
        copies = {1, 2, 3} - {u[1], v[1]}
        alpha_vertex = ("a1xc", copies.pop())
        assert any(
            u in e and v in e and alpha_vertex in e for e in full.hyperedges
        ), (u, v)


def test_cz_graph_empty_class():
    form = TripleForm(["x", "y", "z"])
    gph = cz_interaction_graph(form, "x", (1, 3))
    assert gph.edges == []


def test_degree_report_star_flag(s2xs1):
    h = base_hypergraph(form_from_cup(s2xs1))
    rep = degree_report(h)
    assert rep.star_like  # quasi-hyperbolic hypergraphs are star-like
    assert rep.max_degree == 2
    assert rep.histogram == {0: 0, 1: 4, 2: 1} or rep.histogram == {1: 4, 2: 1}


def test_degree_report_equals_per_vertex_count():
    built = 0
    for K in cup_ladder():
        try:
            base = base_hypergraph(form_from_cup(K))
        except ValueError:  # a nonzero repeated-class integral: no hypergraph
            continue
        for h in (base, lift_full(base)):
            want = {v: sum(v in e for e in h.hyperedges) for v in h.vertices}
            assert degree_report(h).degrees == want, K.counts
        built += bool(base.hyperedges)
    assert built >= 8


@pytest.mark.parametrize("kind,vertices,edges,match", [
    ("part", ["p", "q", "r"], [], "kind 'part'"),
    ("base", ["p", "q", "p"], [], "not distinct"),
    ("base", ["p", "q", "r"], [("p", "q", "x")], r"\['p', 'q', 'x'\]"),
    ("base", ["p", "q", "r"], [("p", "q", "r"), ("p", "p", "q")], "not three distinct"),
    ("full", [("p", 1), ("q", 1)], [(("p", 1), ("q", 1))], "not three distinct"),
])
def test_hypergraph_refuses_bad_vertices_or_hyperedges(kind, vertices, edges, match):
    with pytest.raises(ValueError, match=match):
        Hypergraph(kind, vertices, edges)


@pytest.mark.parametrize("labels", [["x", "x", "y"], [[1], {"a": 1}, 3], ["x", 1.5], ["1", 1, True]])
def test_triple_form_refuses_bad_labels(labels):
    with pytest.raises(ValueError, match=r"^form labels .* are not distinct strs or ints$"):
        TripleForm(labels)


def test_degree_report_empty():
    rep = degree_report(base_hypergraph(TripleForm(["v"])))
    assert rep.max_degree == 0 and not rep.star_like


def test_dot_export(t3):
    h = lift_full(base_hypergraph(form_from_cup(t3)))
    dot = to_dot(h)
    assert dot.count("shape=square") == 6
    assert dot.count("shape=circle") == 9
    assert dot.startswith("graph hypergraph {")


def test_hypergraph_json_roundtrip(t3):
    from tricode import serialize

    h = lift_full(base_hypergraph(form_from_cup(t3)))
    back = serialize.hypergraph_from_json(json.loads(serialize.dumps(serialize.hypergraph_to_json(h))))
    assert back.kind == h.kind
    assert back.vertices == h.vertices
    assert back.hyperedges == h.hyperedges


def cup_ladder():
    """T^3, sd(T^3), the L = 2 and 3 covers, the sigma-rot:2 mapping torus and
    Sigma_g x S^1 for g = 1, 2, 4 with 1 and 2 layers."""
    from test_local_check import t3_cover

    t3, base = build_torus3(), build_sigma_g_rotsym(2)
    family = [t3, barycentric_subdivide(t3).complex, t3_cover(2), t3_cover(3),
              mapping_torus(base, rotation_automorphism(base, 2, 1), 1)]
    return family + [product_with_circle(build_sigma_g(g), layers)
                     for g in (1, 2, 4) for layers in (1, 2)]


def ambiguous_t3s(t3):
    """T^3 with an extra named 2-cycle axb + axc, which pairs with both b and
    c; and T^3 with the named 1-cycles c, a + c and b and only axb and axc
    named, so that c and a + c both meet axb alone."""
    axb, axc = (set(t3.cycles[nm][1]) for nm in ("axb", "axc"))
    (a,), (b,), (c,) = (t3.cycles[nm][1] for nm in "abc")
    return [dataclasses.replace(t3, cycles={**t3.cycles,
                                            "axb+axc": (2, tuple(sorted(axb ^ axc)))}),
            dataclasses.replace(t3, cycles={"c": (1, (c,)), "ca": (1, (a, c)), "b": (1, (b,)),
                                            "axb": t3.cycles["axb"], "axc": t3.cycles["axc"]})]


def test_toric_code_and_triple_form_name_classes_alike(t3):
    from tricode import serialize
    from tricode.codes import toric_code

    corpus = cup_ladder() + ambiguous_t3s(t3)
    for K in corpus + [serialize.complex_from_json(json.loads(serialize.dumps(
            serialize.complex_to_json(K)))) for K in corpus]:
        form = form_from_cup(K)
        assert [lab for lab, _ in toric_code(K, 1).logical_labels()] == form.labels, K.counts
        full = lift_full(base_hypergraph(form))
        assert len(set(full.vertices)) == 3 * len(form.labels)  # 9 on each T^3


def ref_form_from_cup(K) -> TripleForm:
    """Reference: one triple_cup_integral per i <= j <= l, over the basis and
    with the labels form_from_cup uses."""
    names, cycles, cocycles = homology.logical_basis(K)
    k = len(cocycles)
    basis = [Cochain(1, c) for c in cocycles]
    form = TripleForm(homology.logical_labels(K, names, cycles))
    for i, j, l in itertools.combinations_with_replacement(range(k), 3):
        v = triple_cup_integral(K, basis[i], basis[j], basis[l])
        if len({i, j, l}) < 3:
            if v:
                raise ValueError(f"repeated-class triple integral ({i},{j},{l}) is nonzero; "
                                 "no hyperedge reading")
            continue
        if v:
            form.coefficients[frozenset({i, j, l})] = 1
    return form


def _form_or_error(fn, K):
    try:
        form = fn(K)
    except ValueError as exc:
        return str(exc)
    return form.labels, form.coefficients


def test_form_from_cup_matches_per_triple_reference():
    for K in cup_ladder():
        assert _form_or_error(form_from_cup, K) == _form_or_error(ref_form_from_cup, K), K.counts
    with pytest.raises(ValueError, match="needs a 3-complex"):
        form_from_cup(build_sigma_g(2))


def test_form_from_cup_matches_reference_on_arbitrary_cochains(monkeypatch):
    # arbitrary 1-cochains, not only cocycles: repeated-class integrals are then
    # often nonzero, and both must raise at the same first triple
    K = barycentric_subdivide(build_torus3()).complex
    E, rng = K.n_cells(1), random.Random(11)
    outcomes = set()
    for _ in range(40):
        cochains = [rng.getrandbits(E) & rng.getrandbits(E) & rng.getrandbits(E)
                    for _ in range(rng.randint(0, 6))]
        monkeypatch.setattr(homology, "logical_basis", lambda K: (None, cochains, cochains))
        got = _form_or_error(form_from_cup, K)
        assert got == _form_or_error(ref_form_from_cup, K)
        outcomes.add(type(got))
    assert outcomes == {str, tuple}
