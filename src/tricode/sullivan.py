"""Back-engineering a 3-manifold gluing class from a prescribed
skew-symmetric 3-form.

A rank-m 3-form mu with integer coefficients a_{ijk} (i < j < k) is realised
by gluing two genus-m handlebodies through tau = prod sigma_{ijk}^{a_ijk}.
Each sigma block acts on the six (a_i, a_j, a_k, b_i, b_j, b_k) coordinates
as the unit upper-triangular symplectic matrix whose off-diagonal block
couples complementary pairs; it fixes the kernel lattice K(m) = span(a_*)
pointwise.  Their off-diagonal blocks multiply to zero, so ``synthesize``
builds tau in closed form.  The triple-intersection form of the glued
manifold on the m handle classes is mu itself; the consistency checks below
recover what the matrix alone determines (the pair sums) and verify the
symplectic and kernel-fixing properties.  mu is any ``TripleForm``, its labels
the handle classes; ``handle_form`` builds one from the paper's 1-based a_ijk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mcg import TripleForm, is_symplectic
from .snf import IntMatrix, identity


def handle_form(m: int, coeffs: dict[tuple[int, int, int], int]) -> TripleForm:
    """The 3-form with the paper's coefficients a_ijk = coeffs[(i, j, k)],
    1 <= i < j < k <= m, on the m handle classes G1..Gm."""
    bad = next((t for t in coeffs if not 1 <= t[0] < t[1] < t[2] <= m), None)
    if bad is not None:
        raise ValueError(f"indices must satisfy 1 <= i < j < k <= m; got {bad}")
    return TripleForm([f"G{i}" for i in range(1, m + 1)],
                      {frozenset({i - 1, j - 1, k - 1}): a for (i, j, k), a in coeffs.items()})


@dataclass
class SynthesisResult:
    tau: IntMatrix
    predicted_form: TripleForm
    m: int

    def fixes_kernel_lattice(self) -> bool:
        for c in range(self.m):
            col = [self.tau[r][c] for r in range(2 * self.m)]
            if col != [1 if r == c else 0 for r in range(2 * self.m)]:
                return False
        return True

def synthesize(mu: TripleForm) -> SynthesisResult:
    """tau = product over i<j<k of sigma_{ijk}^{a_ijk}, one handle class per
    label of mu; the predicted triple form on the handle classes is mu.

    sigma_{ijk} is [[I, B], [C, I]] in the (a, b) coordinates, B = [[0,1,1],
    [1,0,1],[1,1,0]] on (i, j, k).  C = 0: fixing the kernel lattice forces
    it, and since B is invertible C^T B = 0 has no other symplectic solution.
    So sigma_{ijk} = I + E_ijk with E_ijk upper-right, E_s E_t = 0, and
    (I + E)^a = I + a E for every integer a: tau = I + sum a_ijk E_ijk.
    Raises if mu has UNKNOWN-ALGEBRAIC triples.
    """
    if mu.unknown:
        raise ValueError(f"{len(mu.unknown)} UNKNOWN-ALGEBRAIC coefficients; cannot synthesize tau")
    m = len(mu.labels)
    tau = identity(2 * m)
    for trio, a in mu.coefficients.items():
        for r in trio:
            for c in trio:
                if r != c:
                    tau[r][m + c] += a
    return SynthesisResult(tau, mu, m)


def pair_sums_from_tau(tau: IntMatrix, m: int) -> dict[tuple[int, int], int]:
    """What the matrix alone determines: S_xy = sum over k of a_{x,y,k}
    (the upper-right block entries)."""
    out = {}
    for x in range(m):
        for y in range(x + 1, m):
            out[(x + 1, y + 1)] = tau[x][m + y]
    return out


@dataclass
class RoundtripReport:
    passed: bool
    failures: list[str]


def roundtrip_check(mu: TripleForm) -> RoundtripReport:
    """Verify the synthesis: tau symplectic, fixes K(m) pointwise, its
    upper block matches the pair sums of mu, and the predicted mod-2 form
    equals mu mod 2."""
    failures = []
    res = synthesize(mu)
    if not is_symplectic(res.tau, res.m):
        failures.append("tau is not symplectic")
    if not res.fixes_kernel_lattice():
        failures.append("tau does not act trivially on the kernel lattice")
    want: dict[tuple[int, int], int] = {}
    for t, v in mu.coefficients.items():
        i, j, k = sorted(x + 1 for x in t)
        for (x, y) in ((i, j), (i, k), (j, k)):
            want[(x, y)] = want.get((x, y), 0) + v
    got = pair_sums_from_tau(res.tau, res.m)
    for key, v in got.items():
        if v != want.get(key, 0):
            failures.append(f"pair sum {key}: tau has {v}, form predicts {want.get(key, 0)}")
    if res.predicted_form.known_unit_triples() != mu.known_unit_triples():
        failures.append("predicted mod-2 form differs from mu mod 2")
    return RoundtripReport(not failures, failures)


def genus13_tree_form() -> TripleForm:
    """The six-factor genus-13 gluing example: a sparse tree."""
    return handle_form(
        13,
        {
            (1, 2, 3): 1,
            (1, 4, 5): 1,
            (4, 11, 12): 1,
            (5, 8, 9): 1,
            (2, 12, 13): 1,
            (3, 6, 7): 1,
        },
    )
