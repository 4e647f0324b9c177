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
symplectic and kernel-fixing properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mcg import TripleForm, is_symplectic
from .snf import IntMatrix, identity


@dataclass
class ThreeForm:
    m: int
    coeffs: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j, k), v in self.coeffs.items():
            if not (1 <= i < j < k <= self.m):
                raise ValueError(f"indices must satisfy 1 <= i < j < k <= m; got {(i, j, k)}")
            if v:
                clean[(i, j, k)] = v
        self.coeffs = clean

    def mod2(self) -> TripleForm:
        labels = [f"G{i}" for i in range(1, self.m + 1)]
        form = TripleForm(labels)
        for (i, j, k), v in self.coeffs.items():
            if v % 2:
                form.coefficients[frozenset({i - 1, j - 1, k - 1})] = 1
        return form


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

def synthesize(mu: ThreeForm) -> SynthesisResult:
    """tau = product over i<j<k of sigma_{ijk}^{a_ijk}; the predicted triple
    form on the handle classes is mu mod 2.

    sigma_{ijk} is [[I, B], [C, I]] in the (a, b) coordinates, B = [[0,1,1],
    [1,0,1],[1,1,0]] on (i, j, k).  C = 0: fixing the kernel lattice forces
    it, and since B is invertible C^T B = 0 has no other symplectic solution.
    So sigma_{ijk} = I + E_ijk with E_ijk upper-right, E_s E_t = 0, and
    (I + E)^a = I + a E for every integer a: tau = I + sum a_ijk E_ijk.
    """
    m = mu.m
    tau = identity(2 * m)
    for (i, j, k), a in mu.coeffs.items():
        trio = (i - 1, j - 1, k - 1)
        for r in trio:
            for c in trio:
                if r != c:
                    tau[r][m + c] += a
    return SynthesisResult(tau, mu.mod2(), m)


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


def roundtrip_check(mu: ThreeForm) -> RoundtripReport:
    """Verify the synthesis: tau symplectic, fixes K(m) pointwise, its
    upper block matches the pair sums of mu, and the predicted mod-2 form
    equals mu mod 2."""
    failures = []
    res = synthesize(mu)
    if not is_symplectic(res.tau, mu.m):
        failures.append("tau is not symplectic")
    if not res.fixes_kernel_lattice():
        failures.append("tau does not act trivially on the kernel lattice")
    want: dict[tuple[int, int], int] = {}
    for (i, j, k), v in mu.coeffs.items():
        for (x, y) in ((i, j), (i, k), (j, k)):
            want[(x, y)] = want.get((x, y), 0) + v
    got = pair_sums_from_tau(res.tau, mu.m)
    for key, v in got.items():
        if v != want.get(key, 0):
            failures.append(f"pair sum {key}: tau has {v}, form predicts {want.get(key, 0)}")
    predicted = {t for t, v in res.predicted_form.coefficients.items() if v == 1}
    target = {frozenset({i - 1, j - 1, k - 1}) for (i, j, k), v in mu.coeffs.items() if v % 2}
    if predicted != target:
        failures.append("predicted mod-2 form differs from mu mod 2")
    return RoundtripReport(not failures, failures)


def genus13_tree_form() -> ThreeForm:
    """The six-factor genus-13 gluing example: a sparse tree."""
    return ThreeForm(
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
