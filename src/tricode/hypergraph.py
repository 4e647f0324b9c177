"""Interaction hypergraphs of logical CCZ/CZ structure and magic-state
resource accounting.

The base hypergraph has one vertex per 2-cycle basis class and one
hyperedge per unit triple intersection; lifting to the full hypergraph
triples the vertices (copy labels) and expands each hyperedge into the
3! = 6 copy permutations.  A form's UNKNOWN-ALGEBRAIC (Torelli fibre)
triples are never silently treated as zero: the builders refuse them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import homology
from .cup import spine_edges
from .gf2 import BitMatrix, support
from .mcg import TripleForm


@dataclass(frozen=True)
class Hypergraph:
    kind: str  # base | full
    vertices: list
    hyperedges: list[tuple]

    def __post_init__(self):
        if self.kind not in ("base", "full"):
            raise ValueError(f"hypergraph kind {self.kind!r} is not 'base' or 'full'")
        listed = set(self.vertices)
        if len(listed) < len(self.vertices):
            raise ValueError("hypergraph vertices are not distinct")
        bad = next((e for e in self.hyperedges
                    if len(e) != 3 or len(set(e)) < 3 or not listed.issuperset(e)), None)
        if bad is not None:
            raise ValueError(f"hyperedge {list(bad)} is not three distinct listed vertices")


def form_from_cup(K) -> TripleForm:
    """Triple form of a closed 3-complex: the integrals of a_i cup a_j cup a_l
    over one H^1 basis (``homology.logical_basis``), each class labelled by
    ``homology.logical_labels`` as the toric code labels its logical qubit.

    One pass over the 3-simplices: with mask(e) the classes whose cocycle is 1
    on edge e, a simplex with spine (e1, e2, e3) toggles every i <= j <= l with
    i in mask(e1), j in mask(e2) and l in mask(e3).  Integrals with a repeated
    class must vanish; a nonzero one has no hyperedge reading and raises.
    """
    if K.dims != 3:
        raise ValueError("triple cup integral needs a 3-complex")
    names, cycles, cocycles = homology.logical_basis(K)
    k = len(cocycles)
    mask = BitMatrix(k, K.n_cells(1), cocycles).transpose().rows
    parity = [0] * (k * k)  # bit l of parity[i * k + j]: integral (i, j, l)
    for e1, e2, e3 in spine_edges(K, 3):
        m2, m3 = mask[e2], mask[e3]
        for i in support(mask[e1]):
            for j in support(m2 >> i << i):
                parity[i * k + j] ^= m3 >> j << j
    coefficients = {}
    for i, j, l in itertools.combinations_with_replacement(range(k), 3):
        if (parity[i * k + j] >> l) & 1:
            if len({i, j, l}) < 3:
                raise ValueError(f"repeated-class triple integral ({i},{j},{l}) is nonzero; "
                                 "no hyperedge reading")
            coefficients[frozenset({i, j, l})] = 1
    return TripleForm(homology.logical_labels(K, names, cycles), coefficients)


def base_hypergraph(form: TripleForm) -> Hypergraph:
    """One hyperedge per odd triple-intersection coefficient.

    Raises if any triple is UNKNOWN-ALGEBRAIC (never guessed)."""
    if form.unknown:
        raise ValueError(f"{len(form.unknown)} UNKNOWN-ALGEBRAIC coefficients; "
                         "cannot build the base hypergraph")
    edges = [tuple(form.labels[i] for i in t) for t in form.known_unit_triples()]
    return Hypergraph("base", list(form.labels), edges)


def lift_full(base: Hypergraph) -> Hypergraph:
    """Three copies of every vertex; each base hyperedge lifts to the six
    copy-permutation hyperedges."""
    if base.kind != "base":
        raise ValueError("lift_full expects a base hypergraph")
    vertices = [(v, c) for v in base.vertices for c in (1, 2, 3)]
    edges = [((u, p), (v, q), (w, r)) for u, v, w in base.hyperedges
             for p, q, r in itertools.permutations((1, 2, 3))]
    return Hypergraph("full", vertices, edges)


def magic_state_complexity(full: Hypergraph) -> int:
    """kappa = number of logical CCZ gates = hyperedges of the full
    hypergraph = 6 x (number of triple intersection points)."""
    if full.kind != "full":
        raise ValueError("complexity is defined on the full hypergraph")
    return len(full.hyperedges)


@dataclass
class ColoredGraph:
    """CZ interaction graph: edges that fire together share a color."""

    vertices: list
    edges: list[tuple]  # ((beta, copy_i), (gamma, copy_j))
    color: str


def cz_interaction_graph(form: TripleForm, alpha: str, copies: tuple[int, int] = (1, 2)) -> ColoredGraph:
    """Edges (beta; i) - (gamma; j) for each unit triple containing the
    membrane class alpha, all firing together (one color class).  Raises if
    a triple containing alpha is UNKNOWN-ALGEBRAIC."""
    if alpha not in form.labels:
        raise ValueError(f"unknown membrane class {alpha!r}")
    ai = form.labels.index(alpha)
    unknown = sorted(sorted(t) for t in form.unknown if ai in t)
    if unknown:
        raise ValueError(f"triple {unknown[0]} is UNKNOWN-ALGEBRAIC")
    i, j = copies
    pairs = [[form.labels[x] for x in t if x != ai] for t in form.known_unit_triples() if ai in t]
    edges = [e for beta, gamma in pairs for e in (((beta, i), (gamma, j)), ((gamma, i), (beta, j)))]
    vertices = [(lab, c) for lab in form.labels for c in sorted({i, j})]
    return ColoredGraph(vertices, edges, color=f"CZ[{alpha};{i},{j}]")


@dataclass
class DegreeReport:
    degrees: dict
    histogram: dict[int, int]
    max_degree: int
    star_like: bool

    def text(self) -> str:
        lines = [f"max degree {self.max_degree}; star-like: {self.star_like}"]
        for d in sorted(self.histogram):
            lines.append(f"  degree {d}: {self.histogram[d]} vertices")
        return "\n".join(lines)


def degree_report(h: Hypergraph) -> DegreeReport:
    """Per-vertex hyperedge counts, from one pass over the hyperedges, with a
    star-structure verdict (max degree at least half the hyperedges)."""
    degs = dict.fromkeys(h.vertices, 0)
    for v in itertools.chain.from_iterable(h.hyperedges):
        degs[v] += 1
    hist: dict[int, int] = {}
    for d in degs.values():
        hist[d] = hist.get(d, 0) + 1
    mx = max(degs.values(), default=0)
    star = len(h.hyperedges) > 0 and mx >= max(1, len(h.hyperedges) / 2)
    return DegreeReport(degs, hist, mx, star)


def to_dot(h: Hypergraph) -> str:
    """DOT export; hyperedges drawn as square tri-junction nodes."""
    lines = ["graph hypergraph {"]
    names = {}
    for i, v in enumerate(h.vertices):
        names[v] = f"v{i}"
        lines.append(f'  v{i} [label="{_vstr(v)}", shape=circle];')
    for i, e in enumerate(h.hyperedges):
        lines.append(f'  e{i} [label="", shape=square, width=0.12, style=filled];')
        for v in e:
            lines.append(f"  e{i} -- {names[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _vstr(v) -> str:
    if isinstance(v, tuple):
        return f"{v[0]};{v[1]}"
    return str(v)
