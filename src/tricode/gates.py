"""Diagonal-circuit synthesis and verification.

A diagonal circuit acts as |z> -> w^{f(z)} |z> with w = exp(i pi/4); f is the
circuit's phase polynomial: a multilinear polynomial over Z_8 of degree <= 3.
Everything here is exact and symbolic (residuals are never matrices):

* cup-product circuits: one CCZ per 3-simplex / one CZ per membrane 2-simplex
  coupling front and back edges across toric-code copies;
* transversal T on color codes, signed by the flag bipartition;
* code-space preservation, decided over a local spanning set of ker hz:
  the X-stabilizer rows plus the logical X strings in ker hz (completed from
  a nullspace basis only when they fall short).  For {Z, CZ, CCZ} circuits
  each stabilizer's conjugation residual is built from the monomials that
  touch it and pulled back to a polynomial over the spanning set, which is
  zero iff the residual vanishes on ker hz.  T-type layers use exact coset
  enumeration within a budget, else the signed-overlap sufficient criterion
  against the generators each stabilizer touches;
* extraction of the induced logical gate as a phase polynomial over the
  logical qubits: every diagonal circuit is pulled back over Z_8 onto the
  logical X strings through the same primitive (``pull_back``), for any k;
  plus an exact sparse coset-state simulator as oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complexes import DeltaComplex
from .codes import CssCode
from .gf2 import dot, extend_basis, row_reduce, support

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
            if len(set(qs)) != len(qs) or any(not 0 <= q < self.n for q in qs):
                raise ValueError(f"bad qubit tuple {qs} for gate {kind}")

    def canonical(self) -> "DiagonalCircuit":
        return DiagonalCircuit(self.n, sorted((k, tuple(sorted(q))) for k, q in self.gates))

    def compose(self, other: "DiagonalCircuit") -> "DiagonalCircuit":
        if self.n != other.n:
            raise ValueError(f"cannot compose circuits on {self.n} and {other.n} qubits")
        return DiagonalCircuit(self.n, self.gates + other.gates)

    def count(self, kind: str) -> int:
        return sum(1 for k, _ in self.gates if k == kind)

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

    def degree(self) -> int:
        return max((len(S) for S in self.coeffs), default=0)

    def evaluate(self, z: int) -> int:
        total = 0
        for S, c in self.coeffs.items():
            if all((z >> i) & 1 for i in S):
                total += c
        return total % 8

    def shifted(self, x: int) -> "PhasePolynomial":
        """g(z) = f(z + x), expanded multilinearly (z_i -> 1 - z_i on supp x)."""
        out = PhasePolynomial(self.n)
        for S, c in self.coeffs.items():
            flip = frozenset(i for i in S if (x >> i) & 1)
            keep = S - flip
            # prod over flip of (1 - z_i) = sum over R of (-1)^{|R|} prod z_R
            for r in range(len(flip) + 1):
                for sub in itertools.combinations(sorted(flip), r):
                    sign = -1 if r % 2 else 1
                    out._add(keep | frozenset(sub), sign * c)
        return out

    def minus(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out = PhasePolynomial(self.n, dict(self.coeffs))
        for S, c in other.coeffs.items():
            out._add(S, -c)
        return out

    def constant(self) -> int:
        return self.coeffs.get(frozenset(), 0)

    def is_pauli_z_layer(self) -> bool:
        """All coefficients in {0, 4}: a (-1)-phase polynomial."""
        return all(c == 4 for c in self.coeffs.values())

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

    def vanishes_on_span(self, basis: list[int]) -> tuple[bool, int | None]:
        """Does f vanish identically (mod 8) on the GF(2) span of ``basis``?

        For degree <= 3 with coefficients in {0, 4} this is decided exactly by
        the values on 0, the basis, basis pairs and basis triples
        (polarization of a cubic form over GF(2)); a witness vector is
        returned on failure.  This is the dense reference for the local
        check in ``check_logical_gate``.
        """
        if not self.is_pauli_z_layer():
            raise ValueError("vanishing check expects coefficients in {0, 4}")
        if self.degree() > 3:
            raise ValueError("vanishing check implemented for degree <= 3")
        probes: list[int] = [0]
        probes += basis
        probes += [a ^ b for a, b in itertools.combinations(basis, 2)]
        if self.degree() >= 3:
            probes += [a ^ b ^ c for a, b, c in itertools.combinations(basis, 3)]
        for z in probes:
            if self.evaluate(z):
                return False, z
        return True, None


@dataclass
class GeneralizedPauli:
    """X-product times a diagonal layer: the shape produced by conjugating a
    {Z, CZ, CCZ} circuit with a Pauli-X support."""

    x_support: int
    residual: PhasePolynomial  # degree <= 2, the Z/CZ layer
    global_phase: int  # Z_8


def conjugate_x(circuit: DiagonalCircuit, x: int) -> GeneralizedPauli:
    """X(x) U X(x) for a diagonal U over {Z, CZ, CCZ}: the phase polynomial
    picks up f(z + x) - f(z), one degree lower."""
    f = PhasePolynomial.from_circuit(circuit)
    if any(c not in (0, 4) for c in f.coeffs.values()):
        raise ValueError("conjugate_x expects a {Z, CZ, CCZ} circuit (no S/T)")
    res = f.shifted(x).minus(f)
    if res.degree() > max(0, f.degree() - 1):
        raise ValueError("conjugation residual did not drop in degree")
    return GeneralizedPauli(x, res, res.constant())


# ---------------------------------------------------------------------------
# Circuit builders
# ---------------------------------------------------------------------------


def ccz_circuit(K: DeltaComplex) -> DiagonalCircuit:
    """One CCZ per 3-simplex [v0 v1 v2 v3], coupling copy-1 edge [v0 v1],
    copy-2 edge [v1 v2], copy-3 edge [v2 v3] of three identical toric codes."""
    E = K.n_cells(1)
    gates = []
    if K.dims >= 3:
        for s in range(K.n_cells(3)):
            mid = K.face[3][s][3]
            e1 = K.face[2][mid][2]
            e2 = K.face[2][mid][0]
            e3 = K.back(3, s, 1)
            gates.append(("CCZ", (e1, E + e2, 2 * E + e3)))
    return DiagonalCircuit(3 * E, gates).canonical()


def cz_membrane_circuit(K: DeltaComplex, z2: int, copies: tuple[int, int],
                        check: bool = True) -> DiagonalCircuit:
    """One CZ per 2-simplex of the membrane, coupling copy-i edge [v0 v1] and
    copy-j edge [v1 v2].  The membrane must be a 2-cycle (checked)."""
    i, j = copies
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("copies must be two distinct labels in 1..3")
    from . import homology

    if check and homology.boundary_matrix(K, 2).matvec(z2) != 0:
        raise ValueError("membrane support is not a 2-cycle")
    E = K.n_cells(1)
    gates = []
    for s in support(z2):
        e1 = K.face[2][s][2]
        e2 = K.face[2][s][0]
        gates.append(("CZ", ((i - 1) * E + e1, (j - 1) * E + e2)))
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
    status: str  # PASS | FAIL | INCONCLUSIVE
    mode: str  # polarization | exact-coset | sufficient-criterion | vacuous
    witness_stabilizer: int | None = None
    witness_vector: int | None = None
    detail: str = ""

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
    for S, c in coeffs.items():
        terms = [(c % 8, [0])]  # (running weight, partial keys) groups
        for q in S:
            bits = _powers(masks[q])
            nxt = []
            for w, keys in terms:
                nxt.append((w, [key | b for key in keys for b in bits]))
                if w & 3:  # (-2) * w is nonzero mod 8
                    pairs = [a | b for a, b in itertools.combinations(bits, 2)]
                    nxt.append((-2 * w % 8, [key | r for key in keys for r in pairs]))
                if w & 1:  # 4 * w is nonzero mod 8
                    triples = [a | b | d for a, b, d in itertools.combinations(bits, 3)]
                    nxt.append((4, [key | r for key in keys for r in triples]))
            terms = nxt
        for w, keys in terms:
            for key in keys:
                out[key] = out.get(key, 0) + w
    return {key: v % 8 for key, v in out.items() if v % 8}


def _powers(v: int) -> list[int]:
    """The set bits of v as powers of two, lowest first."""
    out = []
    while v:
        out.append(v & -v)
        v &= v - 1
    return out


def _incidence(vectors: list[int], n: int) -> list[int]:
    """Per qubit q, the bitmask of the vectors whose support contains q."""
    masks = [0] * n
    for a, v in enumerate(vectors):
        for q in support(v):
            masks[q] |= 1 << a
    return masks


def _kernel_generators(code: CssCode, dim: int) -> list[int]:
    """A local spanning set of ker hz (of dimension ``dim``): the nonzero
    X-stabilizer rows and logical X strings that lie in ker hz, extended by
    nullspace vectors only if they do not span it (never for a well-formed
    code)."""
    gens = [g for g in code.hx.rows + code.logical_x if g]
    masks = _incidence(gens, code.n)
    outside = 0  # generators with odd overlap with some Z-stabilizer row
    for r in code.hz.rows:
        odd = 0
        for q in support(r):
            odd ^= masks[q]
        outside |= odd
    gens = [g for a, g in enumerate(gens) if not (outside >> a) & 1]
    if len(row_reduce(gens)[0]) < dim:
        gens += extend_basis(gens, code.hz.nullspace())
    return gens


def _local_residual(by_qubit: list[list[frozenset]], x: int) -> set[frozenset]:
    """Monomials of f(z + x) - f(z) for a polynomial with every coefficient 4,
    from the monomials of f touching supp(x): each such S contributes
    keep * (prod over flip of (1 + z_i) - prod over flip of z_i), i.e. the
    proper subsets of flip = S & supp(x) joined to keep = S - flip."""
    seen: set[frozenset] = set()
    res: set[frozenset] = set()
    for q in support(x):
        for S in by_qubit[q]:
            if S in seen:
                continue
            seen.add(S)
            flip = [i for i in S if (x >> i) & 1]
            keep = S.difference(flip)
            for r in range(len(flip)):
                for sub in itertools.combinations(flip, r):
                    res ^= {keep.union(sub)}
    return res


def check_logical_gate(circuit: DiagonalCircuit, code: CssCode,
                       exhaustive_budget: int = 1 << 20) -> GateCheck:
    """Does the diagonal circuit preserve the code space?

    Code states are supported on ker hz, which is spanned by the local set G
    of X-stabilizer rows and logical X strings in ker hz (``_kernel_generators``).

    {Z, CZ, CCZ} circuits (mode ``polarization``): for every X-stabilizer
    generator x the conjugation residual f(z + x) - f(z) must vanish on
    ker hz.  It is built only from the monomials touching supp(x) and pulled
    back through z = sum_a y_a g_a (``pull_back`` with every coefficient 4);
    it vanishes iff the pulled-back polynomial is zero.  A minimal nonzero
    monomial T gives the witness vector sum_{a in T} g_a, where the residual
    is 4.

    T-type circuits: the phase function must be constant on every coset of
    the X-stabilizer group inside ker hz, checked exactly by enumeration up
    to the budget (mode ``exact-coset``), then by the signed-overlap
    criterion over G (weights 0 mod 8, pairwise overlaps 0 mod 4, triple
    overlaps 0 mod 2, signed by the bipartition); INCONCLUSIVE when neither
    route decides.  FAIL and INCONCLUSIVE details index G.
    """
    if circuit.n != code.n:
        raise ValueError(f"circuit has {circuit.n} qubits but the code has {code.n}")
    f = PhasePolynomial.from_circuit(circuit)
    dim = code.n - code.hz.rank()  # of ker hz
    if f.is_pauli_z_layer():
        gens = _kernel_generators(code, dim)
        masks = _incidence(gens, code.n)
        by_qubit: list[list[frozenset]] = [[] for _ in range(code.n)]
        for S in f.coeffs:
            for q in S:
                by_qubit[q].append(S)
        for idx, x in enumerate(code.hx.rows):
            res = _local_residual(by_qubit, x)
            pulled = pull_back(dict.fromkeys(res, 4), masks)
            if pulled:
                T = min(pulled, key=lambda t: (t.bit_count(), t))
                witness = 0
                for a in support(T):
                    witness ^= gens[a]
                poly = PhasePolynomial(code.n, {S: 4 for S in res})
                return GateCheck("FAIL", "polarization", idx, witness,
                                 f"residual of stabilizer {idx} is {_fmt_poly(poly)}; "
                                 f"nonzero on the sum of generators {support(T)}")
        mode = "polarization" if any(code.hx.rows) else "vacuous"
        return GateCheck("PASS", mode)
    # T-type layer
    if 1 << dim <= exhaustive_budget:
        zbasis = code.hz.nullspace()
        stab_basis, stab_pivots = row_reduce(code.hx.rows)

        def coset_rep(z: int) -> int:
            for b, p in zip(stab_basis, stab_pivots):
                if (z >> p) & 1:
                    z ^= b
            return z

        seen: dict[int, tuple[int, int]] = {}
        z = 0
        gray_prev = 0
        for m in range(1 << dim):
            gray = m ^ (m >> 1)
            changed = gray ^ gray_prev
            gray_prev = gray
            if changed:
                z ^= zbasis[changed.bit_length() - 1]
            val = f.evaluate(z)
            rep = coset_rep(z)
            if rep in seen:
                v0, z0 = seen[rep]
                if v0 != val:
                    return GateCheck("FAIL", "exact-coset", None, z ^ z0,
                                     f"phase differs on one coset: {v0} vs {val}")
            else:
                seen[rep] = (val, z)
        return GateCheck("PASS", "exact-coset")
    crit = _signed_overlap_criterion(f, code, _kernel_generators(code, dim))
    if crit is None:
        return GateCheck("INCONCLUSIVE", "sufficient-criterion", detail="criterion inapplicable")
    ok, why = crit
    if ok:
        return GateCheck("PASS", "sufficient-criterion",
                         detail="SUFFICIENT-CRITERION: not an exhaustive check")
    return GateCheck("INCONCLUSIVE", "sufficient-criterion", detail=why)


def _signed_overlap_criterion(f: PhasePolynomial, code: CssCode,
                              zbasis: list[int]) -> tuple[bool, str] | None:
    """Sufficient condition for a transversal +-T layer to be logical.

    ``zbasis`` may be any spanning set of ker hz: the conditions are
    linear / bilinear in the support, so the verdict depends only on the
    span.  Only the vectors meeting a stabilizer can break its conditions.
    """
    if f.degree() != 1:
        return None
    plus = minus = 0
    for S, c in f.coeffs.items():
        if not S:
            continue
        if c == 1:
            plus |= 1 << min(S)
        elif c == 7:
            minus |= 1 << min(S)
        else:
            return None
    if (plus | minus).bit_count() != code.n:
        return None

    def sw(v: int) -> int:
        return (v & plus).bit_count() - (v & minus).bit_count()

    for gi, x in enumerate(code.hx.rows):
        if sw(x) % 8:
            return False, f"stabilizer {gi}: signed weight {sw(x)} != 0 mod 8"
        near = [(a, za & x) for a, za in enumerate(zbasis) if za & x]
        for a, xa in near:
            if sw(xa) % 4:
                return False, f"stabilizer {gi}, support {a}: overlap != 0 mod 4"
        for (a, xa), (b, xb) in itertools.combinations(near, 2):
            if sw(xa & xb) % 2:
                return False, f"stabilizer {gi}: triple overlap ({a},{b}) odd"
    return True, ""


def _fmt_poly(p: PhasePolynomial) -> str:
    terms = [f"{c}*z{sorted(S)}" if S else str(c) for S, c in sorted(p.coeffs.items(), key=lambda kv: sorted(kv[0]))]
    return " + ".join(terms) if terms else "0"


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

    The physical polynomial of any diagonal circuit is pulled back over Z_8
    through the substitution z -> sum_j lambda_j xbar_j (``pull_back``), so
    the cost follows the overlaps of the logical X strings, not 2^k.
    Requires a passing code-preservation check.
    """
    if checked is None:
        checked = check_logical_gate(circuit, code)
    if not checked.passed:
        raise ValueError(f"not a logical gate: {checked.status} ({checked.detail})")
    poly = logical_phase(PhasePolynomial.from_circuit(circuit), code.logical_x)
    return LogicalAction(code.k, code.logical_labels(), poly)


def logical_phase(f: PhasePolynomial, logical_x: list[int]) -> PhasePolynomial:
    """f pulled back over Z_8 onto the logical X strings, as a polynomial in
    the k = len(logical_x) logical variables.  Raises when a monomial has
    degree > 3 (outside the CCZ hierarchy; unreachable from a circuit, whose
    Z, S and T act on single qubits)."""
    pulled = pull_back(f.coeffs, _incidence(logical_x, f.n))
    if any(key.bit_count() > 3 for key in pulled):
        raise ValueError("logical phase is not degree <= 3 (not in the CCZ hierarchy)")
    return PhasePolynomial(len(logical_x), {frozenset(support(key)): c for key, c in pulled.items()})


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
    gens = list(row_reduce(code.hx.rows)[0])
    gens += [code.logical_x[j] for j in plus]
    base = 0
    for j in range(code.k):
        if j not in plus and (fixed >> j) & 1:
            base ^= code.logical_x[j]
    basis = row_reduce(gens)[0]
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
