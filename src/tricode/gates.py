"""Diagonal-circuit synthesis and verification.

A diagonal circuit acts as |z> -> w^{f(z)} |z> with w = exp(i pi/4); f is the
circuit's phase polynomial: a multilinear polynomial over Z_8 of degree <= 3.
Everything here is exact and symbolic (residuals are never matrices):

* cup-product circuits: one CCZ per 3-simplex / one CZ per membrane 2-simplex
  coupling front and back edges across toric-code copies;
* transversal T on color codes, signed by the flag bipartition;
* code-space preservation, decided exactly for every diagonal circuit by one
  Z_8 pullback of its phase polynomial (``pull_back``) onto a local spanning
  set of ker hz: the X-stabilizer rows plus the logical X strings in ker hz
  (plus the null vectors of hz that ``gf2.kernel_completion`` picks when
  they fall short of spanning it).  The circuit preserves the code space
  iff no monomial of the pulled-back polynomial contains a stabilizer
  variable.  The Z, S and T terms skip the expansion
  (``_pull_back_linear``): their pullback is the triorthogonality sums,
  popcounts of the overlaps of one, two and three generators;
* extraction of the induced logical gate as a phase polynomial over the
  logical qubits, read from the same pullback's logical monomials, for any k;
  plus an exact sparse coset-state simulator as oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import homology
from .complexes import DeltaComplex
from .codes import CssCode
from .cup import spine_edges
from .gf2 import BitMatrix, dot, echelon, kernel_completion, support

GATE_COEFF = {"Z": 4, "S": 2, "Sdg": 6, "T": 1, "Tdg": 7, "CZ": 4, "CCZ": 4}
GATE_ARITY = {"Z": 1, "S": 1, "Sdg": 1, "T": 1, "Tdg": 1, "CZ": 2, "CCZ": 3}
COEFF_GATE_1 = {4: "Z", 2: "S", 6: "Sdg", 1: "T", 7: "Tdg", 3: None, 5: None}


@dataclass
class DiagonalCircuit:
    n: int
    gates: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    def __post_init__(self):
        for kind, qs in self.gates:
            if kind not in GATE_COEFF:
                raise ValueError(f"unknown diagonal gate {kind!r}")
            if len(qs) != GATE_ARITY[kind]:
                raise ValueError(f"gate {kind} acts on {GATE_ARITY[kind]} qubit(s), "
                                 f"not {len(qs)}: {qs}")
            if any(type(q) is not int or not 0 <= q < self.n for q in qs) or len(set(qs)) != len(qs):
                raise ValueError(f"bad qubit tuple {qs} for gate {kind}")

    def canonical(self) -> "DiagonalCircuit":
        return DiagonalCircuit(self.n, sorted((k, tuple(sorted(q))) for k, q in self.gates))

    def depth_bound(self) -> int:
        """Greedy colouring of the gate-overlap graph: parallel layers needed."""
        layers: list[set[int]] = []
        for _, qs in self.gates:
            qset = set(qs)
            for layer in layers:
                if not layer & qset:
                    layer |= qset
                    break
            else:
                layers.append(set(qset))
        return len(layers)


@dataclass
class PhasePolynomial:
    """f(z) = sum over monomials S of coeff[S] * prod_{i in S} z_i, mod 8."""

    n: int
    coeffs: dict[frozenset, int] = field(default_factory=dict)

    def _add(self, S: frozenset, v: int) -> None:
        cur = (self.coeffs.get(S, 0) + v) % 8
        if cur:
            self.coeffs[S] = cur
        else:
            self.coeffs.pop(S, None)

    @classmethod
    def from_circuit(cls, circuit: DiagonalCircuit) -> "PhasePolynomial":
        poly = cls(circuit.n)
        for kind, qs in circuit.gates:
            poly._add(frozenset(qs), GATE_COEFF[kind])
        return poly

    def evaluate(self, z: int) -> int:
        total = 0
        for S, c in self.coeffs.items():
            if all((z >> i) & 1 for i in S):
                total += c
        return total % 8

    def to_circuit(self) -> DiagonalCircuit:
        """Inverse of from_circuit for standard coefficients; raises when a
        monomial has no gate in {Z, S, Sdg, T, Tdg, CZ, CCZ}."""
        gates = []
        for S, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            if not S:
                if c:
                    raise ValueError("global phase has no gate")
                continue
            if len(S) == 1:
                kind = COEFF_GATE_1.get(c)
                if kind is None:
                    raise ValueError(f"coefficient {c} on {set(S)} is not a standard gate")
            elif len(S) == 2 and c == 4:
                kind = "CZ"
            elif len(S) == 3 and c == 4:
                kind = "CCZ"
            else:
                raise ValueError(f"monomial {set(S)} with coefficient {c} not expressible")
            gates.append((kind, tuple(sorted(S))))
        return DiagonalCircuit(self.n, gates)


# ---------------------------------------------------------------------------
# Circuit builders
# ---------------------------------------------------------------------------


def ccz_circuit(K: DeltaComplex) -> DiagonalCircuit:
    """One CCZ per 3-simplex [v0 v1 v2 v3], coupling copy-1 edge [v0 v1],
    copy-2 edge [v1 v2], copy-3 edge [v2 v3] of three identical toric codes."""
    E = K.n_cells(1)
    gates = [("CCZ", (e1, E + e2, 2 * E + e3)) for e1, e2, e3 in spine_edges(K, 3)]
    return DiagonalCircuit(3 * E, gates).canonical()


def cz_membrane_circuit(K: DeltaComplex, z2: int, copies: tuple[int, int]) -> DiagonalCircuit:
    """One CZ per 2-simplex of the membrane, coupling copy-i edge [v0 v1] and
    copy-j edge [v1 v2].  The membrane must be a 2-cycle (checked)."""
    i, j = copies
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("copies must be two distinct labels in 1..3")
    if homology.boundary_matrix(K, 2).matvec(z2) != 0:
        raise ValueError("membrane support is not a 2-cycle")
    E = K.n_cells(1)
    spine = spine_edges(K, 2)
    gates = [("CZ", ((i - 1) * E + spine[s][0], (j - 1) * E + spine[s][1])) for s in support(z2)]
    return DiagonalCircuit(3 * E, gates).canonical()


def transversal_t(code: CssCode) -> DiagonalCircuit:
    """T on positive-parity flags, T-dagger on negative-parity flags."""
    signs = code.meta.get("signs")
    if signs is None:
        raise ValueError("code carries no bipartition metadata (not a color code?)")
    gates = [("T" if s > 0 else "Tdg", (q,)) for q, s in enumerate(signs)]
    return DiagonalCircuit(code.n, gates)


# ---------------------------------------------------------------------------
# Code-space preservation
# ---------------------------------------------------------------------------


@dataclass
class GateCheck:
    status: str  # PASS | FAIL
    mode: str  # pullback | vacuous
    witness_stabilizer: int | None = None
    witness_vector: int | None = None
    detail: str = ""
    # on PASS, the phase pulled back onto the logical X strings, {bitmask over
    # the logical qubits: coefficient mod 8}; None when one is outside ker hz
    logical: dict[int, int] | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def pull_back(coeffs: dict[frozenset, int], masks: list[int]) -> dict[int, int]:
    """Pull a phase polynomial back through a GF(2)-linear substitution.

    f = sum_S coeffs[S] prod_{q in S} z_q over Z_8, with z_q = XOR of y_a over
    the bits a of ``masks[q]``.  Over the integers XOR_{a in A} y_a is the sum
    over nonempty R of A of (-2)^{|R|-1} y^R (Amy & Mosca, arXiv:1601.07363),
    so a term stops expanding once its weight is 0 mod 8: coefficient 4 takes
    singletons only (the GF(2) product), odd coefficients subsets up to size 3.
    Returns the algebraic normal form {bitmask over the y: coefficient mod 8}.
    """
    out: dict[int, int] = {}
    get = out.get
    for S, c in coeffs.items():
        terms = [(c % 8, [0])]  # (running weight, partial keys) groups
        for q in S:
            bits = _powers(masks[q])
            nxt = []
            for w, keys in terms:
                subsets = [(w, bits)]
                if w & 3:  # (-2) * w is nonzero mod 8
                    subsets.append((-2 * w % 8, list(map(sum, itertools.combinations(bits, 2)))))
                if w & 1:  # 4 * w is nonzero mod 8
                    subsets.append((4, list(map(sum, itertools.combinations(bits, 3)))))
                for v, rs in subsets:
                    nxt.append((v, rs if keys == [0] else [key | r for key in keys for r in rs]))
            terms = nxt
        for w, keys in terms:
            for key in keys:
                out[key] = get(key, 0) + w
    return {key: v % 8 for key, v in out.items() if v % 8}


def _pull_back_linear(coeffs: dict[frozenset, int], gens: list[int],
                      masks: list[int]) -> dict[int, int]:
    """``pull_back`` of a degree-1 phase sum_q c_q z_q through z = sum_a y_a
    gens[a] (``masks[q]``: the generators on qubit q), without expanding it.

    Summed over the qubits, the Amy-Mosca expansion gives y_a the sum of c_q
    over g_a, y_a y_b -2 times the sum over g_a & g_b and y_a y_b y_c 4 times
    the parity of the odd c_q over g_a & g_b & g_c: the triorthogonality sums
    of Bravyi and Haah (arXiv:1209.2426); higher terms vanish mod 8.  With the
    c_q held as three bit planes, every sum is popcounts of one overlap.
    Pairs and triples are found through the masks, so only overlapping
    generators are visited.  Returns the same normal form as ``pull_back``.
    """
    p0 = p1 = p2 = 0
    for S, c in coeffs.items():
        (q,) = S
        bit = 1 << q
        if c & 1:
            p0 |= bit
        if c & 2:
            p1 |= bit
        if c & 4:
            p2 |= bit
    nbrs = []  # per generator: the generators sharing a qubit with it
    for g in gens:
        acc = 0
        for q in support(g):
            acc |= masks[q]
        nbrs.append(acc)
    out: dict[int, int] = {}
    for a, ga in enumerate(gens):
        w = ((ga & p0).bit_count() + 2 * (ga & p1).bit_count() + 4 * (ga & p2).bit_count()) % 8
        if w:
            out[1 << a] = w
        for b in support(nbrs[a] >> (a + 1)):
            b += a + 1
            inter = ga & gens[b]
            odd = inter & p0
            w = -2 * (odd.bit_count() + 2 * (inter & p1).bit_count()) % 8
            if w:
                out[1 << a | 1 << b] = w
            if not odd:
                continue
            for c in support((nbrs[a] & nbrs[b]) >> (b + 1)):
                c += b + 1
                if (odd & gens[c]).bit_count() & 1:
                    out[1 << a | 1 << b | 1 << c] = 4
    return out


def _powers(v: int) -> list[int]:
    """The set bits of v as powers of two, lowest first."""
    out = []
    while v:
        out.append(v & -v)
        v &= v - 1
    return out


def _kernel_generators(code: CssCode) -> tuple[list[int], list[int], bool]:
    """A local spanning set G of ker hz with its incidence masks.

    G is the X-stabilizer rows (variable a = hx row a), then the logical X
    strings (variable m + j = logical j; zeroed when outside ker hz), then
    the null vectors of hz that complete their span to ker hz
    (``kernel_completion``: none for a well-formed code).  Returns G, the
    masks and whether every logical X lies in ker hz.  Raises on an
    X-stabilizer row outside ker hz.

    A code built by ``toric_code`` or ``color_code`` skips the CSS and
    spanning passes: both hold by construction.  Any other code, such as a
    loaded one, pays them, with one elimination of hz, on every check.
    """
    m = code.hx.nrows
    gens = code.hx.rows + code.logical_x
    masks = BitMatrix(len(gens), code.n, gens).transpose().rows  # per qubit: the generators on it
    if code._spans_ker_hz:
        return gens, masks, True
    outside = 0  # generators with odd overlap with some Z-stabilizer row
    for r in code.hz.rows:
        odd = 0
        for q in support(r):
            odd ^= masks[q]
        outside |= odd
    if outside & ((1 << m) - 1):
        row = (outside & -outside).bit_length() - 1
        raise ValueError(f"X-stabilizer row {row} has odd overlap with a Z-stabilizer row "
                         "(not a CSS code)")
    gens = [0 if (outside >> a) & 1 else g for a, g in enumerate(gens)]
    extra = kernel_completion(gens, code.hz.rows, code.n)
    if outside or extra:  # else the masks above already describe gens
        gens += extra
        masks = BitMatrix(len(gens), code.n, gens).transpose().rows
    return gens, masks, not outside


def check_logical_gate(circuit: DiagonalCircuit, code: CssCode) -> GateCheck:
    """Does the diagonal circuit preserve the code space?

    It does iff its phase f is constant on every coset z + S, for z in ker hz
    and S the X-stabilizer group.  f is pulled back once through
    z = sum_a y_a g_a over the local spanning set G of ker hz
    (``_kernel_generators``, ``pull_back``).  The Z_8 algebraic normal form
    of f(sum_a y_a g_a) is unique, so f is constant on the cosets iff no
    monomial contains a stabilizer variable; the monomials over the logical
    variables are then the logical action, kept for ``extract_logical_action``.

    On FAIL the witness stabilizer is the hx row of the lowest stabilizer
    variable a in a monomial: the first row x whose residual f(z + x) - f(z)
    does not vanish on ker hz.  The witness vector z is the sum of the other
    generators of a smallest monomial T containing a; there the residual
    equals the coefficient of T.
    """
    if circuit.n != code.n:
        raise ValueError(f"circuit has {circuit.n} qubits but the code has {code.n}")
    gens, masks, logicals_inside = _kernel_generators(code)
    m, k = code.hx.nrows, len(code.logical_x)
    coeffs = PhasePolynomial.from_circuit(circuit).coeffs
    linear = {S: c for S, c in coeffs.items() if len(S) == 1}
    pulled = pull_back({S: c for S, c in coeffs.items() if len(S) != 1}, masks)
    if linear:  # Z, S and T terms: overlap popcounts instead of expansion
        for key, c in _pull_back_linear(linear, gens, masks).items():
            c = (pulled.get(key, 0) + c) % 8
            if c:
                pulled[key] = c
            else:
                del pulled[key]
    stab = (1 << m) - 1
    hit = [key for key in pulled if key & stab]
    if hit:
        a = min(key & -key for key in hit).bit_length() - 1
        T = min((key for key in hit if (key >> a) & 1), key=lambda t: (t.bit_count(), t))
        others = support(T ^ 1 << a)
        witness = 0
        for b in others:
            witness ^= gens[b]
        at = f"the sum of generators {others}" if others else "0"
        return GateCheck("FAIL", "pullback", a, witness,
                         f"stabilizer {a}: f(z + x) - f(z) = {pulled[T]} at z = {at}")
    logical = None
    if logicals_inside:
        logical = {key >> m: c for key, c in pulled.items() if not key >> (m + k)}
    return GateCheck("PASS", "pullback" if any(code.hx.rows) else "vacuous", logical=logical)


# ---------------------------------------------------------------------------
# Logical action
# ---------------------------------------------------------------------------


@dataclass
class LogicalAction:
    k: int
    labels: list
    poly: PhasePolynomial  # over logical variables 0..k-1

    def gate_list(self) -> list[tuple[str, tuple]]:
        circ = self.poly.to_circuit()
        return [(kind, tuple(self.labels[q] for q in qs)) for kind, qs in circ.canonical().gates]


def extract_logical_action(circuit: DiagonalCircuit, code: CssCode,
                           checked: GateCheck | None = None) -> LogicalAction:
    """The induced logical diagonal, as a phase polynomial over the logical
    qubits (labels from the code metadata).

    It is read off the code-space check's Z_8 pullback (``checked``, the
    result of ``check_logical_gate`` for this circuit and code, is run only
    when it is missing), so the cost follows the overlaps of the generators,
    not 2^k.  Requires a passing check and every logical X string in ker hz:
    a passing check carries no pullback exactly when one is outside.
    """
    if checked is None:
        checked = check_logical_gate(circuit, code)
    if not checked.passed:
        raise ValueError(f"not a logical gate: {checked.status} ({checked.detail})")
    if checked.logical is None:
        j = next((j for j, lx in enumerate(code.logical_x) if code.hz.matvec(lx)), None)
        raise ValueError("the check carries no logical pullback" if j is None
                         else f"logical X {j} has a Z-syndrome (not in ker hz)")
    return LogicalAction(code.k, code.logical_labels(), _logical_poly(checked.logical, code.k))


def _logical_poly(pulled: dict[int, int], k: int) -> PhasePolynomial:
    """A pulled-back phase over k logical variables as a polynomial.  Raises
    when a monomial has degree > 3 (outside the CCZ hierarchy; unreachable
    from a circuit, whose Z, S and T act on single qubits)."""
    if any(key.bit_count() > 3 for key in pulled):
        raise ValueError("logical phase is not degree <= 3 (not in the CCZ hierarchy)")
    return PhasePolynomial(k, {frozenset(support(key)): c for key, c in pulled.items()})


# ---------------------------------------------------------------------------
# Exact coset-state oracle
# ---------------------------------------------------------------------------


@dataclass
class SparseState:
    """Uniform-magnitude state over a coset support: bitstring -> Z_8 phase."""

    phases: dict[int, int]

    def normalized(self) -> "SparseState":
        if not self.phases:
            return self
        ref = self.phases[min(self.phases)]
        return SparseState({v: (p - ref) % 8 for v, p in self.phases.items()})

    def equal_up_to_global_phase(self, other: "SparseState") -> bool:
        return self.normalized().phases == other.normalized().phases


def coset_support(code: CssCode, plus: list[int], fixed: int = 0) -> list[int]:
    """All basis strings of the code state with logical qubits in ``plus`` in
    the plus state and the rest fixed to the computational values in
    ``fixed`` (bit j = logical value of qubit j)."""
    base = 0
    for j in range(code.k):
        if j not in plus and (fixed >> j) & 1:
            base ^= code.logical_x[j]
    basis = list(echelon(code.hx.rows + [code.logical_x[j] for j in plus]).values())
    if len(basis) > 24:
        raise ValueError(f"coset support dimension {len(basis)} exceeds the 2^24 cap")
    out = [base]  # entry m is base + sum of basis[i] over the bits i of m
    for b in basis:
        out += [v ^ b for v in out]
    return out


def coset_simulate(circuit: DiagonalCircuit, code: CssCode, plus: list[int],
                   fixed: int = 0) -> SparseState:
    """Exact state after the diagonal circuit on the specified logical state
    (|+> on the ``plus`` logicals, computational ``fixed`` elsewhere)."""
    f = PhasePolynomial.from_circuit(circuit)
    return SparseState({v: f.evaluate(v) for v in coset_support(code, plus, fixed)})


def logical_state_lift(action: LogicalAction, code: CssCode, plus: list[int],
                       fixed: int = 0) -> SparseState:
    """The state predicted by applying the extracted logical action at the
    logical level: phase of each support string v is the logical polynomial
    evaluated at lambda(v) = pairings of v with the logical Z strings."""
    out = {}
    for v in coset_support(code, plus, fixed):
        lam = 0
        for j, lz in enumerate(code.logical_z):
            if dot(v, lz):
                lam |= 1 << j
        out[v] = action.poly.evaluate(lam)
    return SparseState(out)


def hypergraph_state_poly(k: int, hyperedges) -> PhasePolynomial:
    """Phase polynomial of the k-qubit hypergraph state: one CCZ per
    hyperedge applied to the all-plus state."""
    poly = PhasePolynomial(k)
    for edge in hyperedges:
        poly._add(frozenset(edge), 4)
    return poly
